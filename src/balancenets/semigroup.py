"""Operator semigroup of the perception process.

A control matrix picks one neighbor per node; paired with a reaction
matrix it becomes an operator on joint states.  Products of these
operators form a finite semigroup whose minimal left ideals pin down
where the random process can end up.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .config import BOUND_PRODUCT_STEPS, lazy_module, trajectory_seed
from .errors import BoundExceededError, NonPotentialError, ValidationError
from .groups import GroupElement, ReactionGroup
from .network import Marking, RelationGraph
from .potential import _pair_marks

np = lazy_module("numpy")


@dataclass(frozen=True)
class ControlMatrix:
    """0/1 matrix with a single unit per row, supported on graph edges.

    Row i holds its unit in the column of the neighbor that node i reads
    this step; rowmap[i] is that column.
    """

    rowmap: tuple[int, ...]

    @property
    def matrix(self) -> np.ndarray:
        n = len(self.rowmap)
        out = np.zeros((n, n), dtype=int)
        for i, j in enumerate(self.rowmap):
            out[i, j] = 1
        return out

    @classmethod
    def from_matrix(cls, array, graph: RelationGraph | None = None) -> "ControlMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("control matrix must be square")
        rowmap = []
        for i, row in enumerate(arr):
            hits = np.flatnonzero(row)
            if len(hits) != 1 or row[hits[0]] != 1:
                raise ValidationError(f"row {i} must have exactly one unit entry")
            rowmap.append(int(hits[0]))
        cm = cls(tuple(rowmap))
        if graph is not None:
            cm.validate_on(graph)
        return cm

    def validate_on(self, graph: RelationGraph) -> None:
        if len(self.rowmap) != len(graph):
            raise ValidationError("control matrix size does not match the graph")
        for i, j in enumerate(self.rowmap):
            if not graph.has_edge(i, j):
                raise ValidationError(
                    f"row {i} points at {j}, which is not a neighbor"
                )


def control_matrices(graph: RelationGraph) -> Iterator[ControlMatrix]:
    """All control matrices of the graph, lexicographic in the rowmap."""
    pools = [graph.neighbors(i) for i in range(len(graph))]
    for rowmap in itertools.product(*pools):
        yield ControlMatrix(rowmap)


def word_index_map(word: Sequence[ControlMatrix]) -> tuple[int, ...]:
    """Index map of a product of control matrices, first factor acting first."""
    if not word:
        raise ValidationError("empty control word")
    n = len(word[0].rowmap)
    out = tuple(range(n))
    for cm in word:
        if len(cm.rowmap) != n:
            raise ValidationError("control matrices have mixed sizes")
        out = tuple(cm.rowmap[i] for i in out)
    return out


class ReactionMatrix:
    """Square matrix of reactions with identity diagonal.

    Entry (i, j) carries the element a state travels through when node i
    reads node j.  A full matrix is potential when entry(i,j)*entry(j,k)
    == entry(i,k) for all triples; construction decides this once and
    raises unless validate=False, which exists for broken fixtures.
    """

    def __init__(
        self,
        group: ReactionGroup,
        entries: Sequence[Sequence],
        graph: RelationGraph | None = None,
        validate: bool = True,
    ):
        self.group = group
        n = len(entries)
        if n < 2:
            raise ValidationError("reaction matrix needs at least two nodes")
        grid = []
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValidationError("reaction matrix must be square")
            grid.append(tuple(group.element(v) for v in row))
        self.entries = tuple(grid)
        self.n = n
        if graph is None:
            labels = tuple(range(1, n + 1))
            graph = RelationGraph.complete(labels)
        elif len(graph) != n:
            raise ValidationError("graph size does not match the reaction matrix")
        self.graph = graph
        for i in range(n):
            if not self.entries[i][i].is_identity:
                raise ValidationError(f"diagonal entry ({i}, {i}) is not the identity")
        self._defect = self._potential_defect()
        if validate and self._defect:
            raise NonPotentialError(self._defect)

    def _potential_defect(self) -> str | None:
        """First failing triple, or None: with an identity diagonal, all triples
        hold exactly when those through row 0 do, and those come first."""
        row = self.entries[0]
        for j, k in itertools.product(range(self.n), repeat=2):
            if row[j] * self.entries[j][k] != row[k]:
                return f"entries (0,{j})*({j},{k}) do not match entry (0,{k})"
        return None

    @classmethod
    def from_marking(cls, marking: Marking) -> "ReactionMatrix":
        """Extend the marking to all node pairs and wrap it as a matrix.

        The extension exists exactly when the marking is potential, so a
        non-potential marking raises before any matrix is built.
        """
        entries = _pair_marks(marking)
        return cls(marking.group, entries, graph=marking.graph)

    def entry(self, i: int, j: int) -> GroupElement:
        return self.entries[i][j]

    def is_potential(self) -> bool:
        return self._defect is None


@dataclass(frozen=True)
class OperatorMatrix:
    """Action on joint states: node i reads position pattern[i] through values[i]."""

    pattern: tuple[int, ...]
    values: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if len(self.pattern) != len(self.values):
            raise ValidationError("pattern and values must have equal length")

    def apply(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(v(x[p]) for p, v in zip(self.pattern, self.values))

    def __mul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Composite acting as self after other on states."""
        if len(self.pattern) != len(other.pattern):
            raise ValidationError("operators act on different node counts")
        pattern = tuple(other.pattern[p] for p in self.pattern)
        values = tuple(
            v * other.values[p] for p, v in zip(self.pattern, self.values)
        )
        return OperatorMatrix(pattern, values)

    @property
    def rank(self) -> int:
        return len(set(self.pattern))

    def sort_key(self) -> tuple:
        return (self.pattern, tuple(v.index for v in self.values))


def star_product(control, rg: ReactionMatrix) -> OperatorMatrix:
    """Operator of one step: pattern from the control, reactions from rg."""
    pattern = control.rowmap if isinstance(control, ControlMatrix) else tuple(control)
    if len(pattern) != rg.n:
        raise ValidationError("control size does not match the reaction matrix")
    values = tuple(rg.entry(i, j) for i, j in enumerate(pattern))
    return OperatorMatrix(pattern, values)


def rho(word: Sequence[ControlMatrix], rg: ReactionMatrix, check: bool = True) -> OperatorMatrix:
    """Operator of a control word, first factor acting first on indices.

    With check=True the product is compared against the one-step operator
    of the composite index map; a mismatch means the reaction matrix is
    not potential and raises with the offending entry.
    """
    if not word:
        raise ValidationError("empty control word")
    acc = star_product(word[0], rg)
    for cm in word[1:]:
        acc = acc * star_product(cm, rg)
    if check:
        direct = star_product(word_index_map(word), rg)
        if acc != direct:
            bad = next(
                i
                for i in range(rg.n)
                if acc.values[i] != direct.values[i] or acc.pattern[i] != direct.pattern[i]
            )
            raise NonPotentialError(
                f"word operator deviates from the one-step operator at row {bad}: "
                "the reaction matrix is not potential"
            )
    return acc


# -- minimal left ideals -------------------------------------------------------


def _contracting_word(graph: RelationGraph) -> list[ControlMatrix]:
    """A control word whose index map has the smallest image of any word.

    Contract: every node reads its BFS parent from node 0 and node 0 reads
    its smallest neighbor r; max-depth such steps squeeze the image onto
    the edge {0, r}, the minimum on a bipartite graph.
    Collapse, otherwise: the two image nodes step along neighbors in
    lockstep until they meet, which they do because an odd cycle gives an
    even walk between any two nodes of a connected graph.
    """
    n = len(graph)
    nbrs = graph.adjacency
    parent = [nbrs[0][0]] + [-1] * (n - 1)
    depth = [0] * n
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v and parent[v] < 0:
                parent[v], depth[v] = u, depth[u] + 1
                queue.append(v)
    word = [ControlMatrix(tuple(parent))] * max(depth)
    if graph.parts is not None:
        return word
    # Breadth-first over unordered image pairs; each entry keeps its
    # predecessor pair and the step that moved the pair there.
    default = [nb[0] for nb in nbrs]
    steps: dict[tuple[int, int], tuple | None] = {(0, parent[0]): None}
    queue = deque(steps)
    while True:
        a, b = pair = queue.popleft()
        for a2, b2 in itertools.product(nbrs[a], nbrs[b]):
            target = (min(a2, b2), max(a2, b2))
            if target in steps:
                continue
            rowmap = list(default)
            rowmap[a], rowmap[b] = a2, b2
            steps[target] = (pair, ControlMatrix(tuple(rowmap)))
            if a2 == b2:
                collapse = []
                while steps[target] is not None:
                    target, cm = steps[target]
                    collapse.append(cm)
                return word + collapse[::-1]
            queue.append(target)


def _witness(graph: RelationGraph, mark: Callable[[int, int], GroupElement]) -> OperatorMatrix:
    """Operator of the contracting word, node i reading its choice j through
    mark(i, j), composed as rho composes: the last factor acts first."""
    steps = (
        OperatorMatrix(cm.rowmap, tuple(map(mark, itertools.count(), cm.rowmap)))
        for cm in _contracting_word(graph)
    )
    return functools.reduce(operator.mul, steps)


def _image(op: OperatorMatrix, k: int) -> list[tuple[int, ...]]:
    """op applied to every assignment of the nodes its pattern reads, in
    itertools.product order: the k**rank joint states op can reach."""
    nodes = sorted(set(op.pattern))
    assignments = itertools.product(range(k), repeat=len(nodes))
    return [op.apply(dict(zip(nodes, y))) for y in assignments]


def _left_children(op: OperatorMatrix, rg: ReactionMatrix) -> Iterator[OperatorMatrix]:
    """All g*op for one-step operators g; choices decouple per node."""
    options = []
    for i in range(rg.n):
        seen = {}
        for c in rg.graph.neighbors(i):
            key = (op.pattern[c], rg.entry(i, c) * op.values[c])
            seen[(key[0], key[1].index)] = key
        options.append([seen[k] for k in sorted(seen)])
    for combo in itertools.product(*options):
        yield OperatorMatrix(
            tuple(p for p, _ in combo), tuple(v for _, v in combo)
        )


def _right_children(op: OperatorMatrix, rg: ReactionMatrix) -> Iterator[OperatorMatrix]:
    """All op*g for one-step operators g; only choices on the image matter."""
    image = sorted(set(op.pattern))
    pools = [rg.graph.neighbors(t) for t in image]
    for combo in itertools.product(*pools):
        dest = dict(zip(image, combo))
        pattern = tuple(dest[p] for p in op.pattern)
        values = tuple(
            v * rg.entry(p, dest[p]) for p, v in zip(op.pattern, op.values)
        )
        yield OperatorMatrix(pattern, values)


_CLOSURE_CAP = 200000


def _closure(
    seed: OperatorMatrix,
    children: Callable[[OperatorMatrix], Iterable[OperatorMatrix]],
) -> frozenset:
    """Every operator reachable from seed by repeatedly taking children."""
    out = {seed}
    queue = [seed]
    while queue:
        op = queue.pop()
        for child in children(op):
            if child not in out:
                out.add(child)
                queue.append(child)
                if len(out) > _CLOSURE_CAP:
                    raise BoundExceededError("operator closure exceeded the safety cap")
    return frozenset(out)


def _kernel(rg: ReactionMatrix) -> frozenset:
    """Smallest two-sided ideal, as the two-sided closure of one operator.

    In a finite transformation semigroup the smallest ideal is exactly the
    set of elements of minimum rank, and an operator whose pattern has
    image size r has rank k**r on joint states, so any operator of the
    smallest pattern image generates the whole kernel.
    """
    return _closure(
        _witness(rg.graph, rg.entry),
        lambda op: itertools.chain(_left_children(op, rg), _right_children(op, rg)),
    )


@dataclass(frozen=True)
class LeftIdeal:
    """Minimal left ideal of the operator semigroup."""

    elements: tuple[OperatorMatrix, ...]
    kind: str
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class IdealEnumeration:
    ideals: tuple[LeftIdeal, ...]
    kernel_size: int
    min_rank: int
    expected_count: int | None
    matches_expected: bool | None


def theorem1_expected(graph: RelationGraph) -> int:
    """Predicted number of minimal left ideals for a potential matrix."""
    if graph.parts is None:
        return len(graph)
    return len(graph.parts[0]) * len(graph.parts[1])


def theorem1_min_rank(graph: RelationGraph) -> int:
    """Smallest operator rank in the semigroup: 2 on bipartite graphs, else 1."""
    return 1 if graph.parts is None else 2


def _classify(
    elements: tuple[OperatorMatrix, ...],
    parts: tuple[frozenset[int], frozenset[int]] | None,
) -> tuple[str, tuple[int, ...]]:
    """Kind and read nodes of an ideal whose operators all read the same nodes."""
    nodes = tuple(sorted(set(elements[0].pattern)))
    if len(elements) == 1 and len(nodes) == 1:
        return "column", nodes
    if parts is not None and len(elements) == 2:
        # A pair ideal: each operator is constant on both parts, and the two
        # operators swap the values they read there.
        (a, b), (c, d) = ([{op.pattern[i] for i in part} for part in parts] for op in elements)
        if len(a) == len(b) == 1 and (a, b) == (d, c):
            return "pair", nodes
    return "other", nodes


def enumerate_ideals(rg: ReactionMatrix) -> IdealEnumeration:
    """All minimal left ideals of the semigroup generated by one-step operators.

    Works through the kernel, the smallest two-sided ideal: it is exactly
    the set of minimum-rank operators, so the two-sided closure of one
    constructed witness is all of it.  Two kernel elements generate the
    same minimal left ideal exactly when they identify the same joint states
    (Green's L-relation), which for an operator means agreeing on the nodes
    its pattern reads, since every value is a bijection.
    """
    kernel = _kernel(rg)
    min_rank = min(op.rank for op in kernel)
    # Grouped in sort order, each ideal is met first at its smallest element,
    # so the list comes out sorted by it and each ideal's elements in order.
    groups: dict[frozenset[int], list[OperatorMatrix]] = {}
    for op in sorted(kernel, key=OperatorMatrix.sort_key):
        groups.setdefault(frozenset(op.pattern), []).append(op)
    ideals = [
        LeftIdeal(elements, *_classify(elements, rg.graph.parts))
        for elements in map(tuple, groups.values())
    ]
    expected = theorem1_expected(rg.graph) if rg.is_potential() else None
    matches = (len(ideals) == expected) if expected is not None else None
    return IdealEnumeration(
        ideals=tuple(ideals),
        kernel_size=len(kernel),
        min_rank=min_rank,
        expected_count=expected,
        matches_expected=matches,
    )


def final_states(
    rg: ReactionMatrix, enumeration: IdealEnumeration | None = None
) -> frozenset[tuple[int, ...]]:
    """Joint states reachable under minimal-ideal operators from anywhere:
    the union of their images."""
    if enumeration is None:
        enumeration = enumerate_ideals(rg)
    k = len(rg.group.states)
    return frozenset(
        x for ideal in enumeration.ideals for op in ideal.elements for x in _image(op, k)
    )


# -- random products -----------------------------------------------------------


@dataclass(frozen=True)
class ProductTrajectory:
    """One run of the random perception process: its rank trail and where
    the product ends."""

    start: tuple[int, ...]
    ranks: tuple[int, ...]
    absorbed_at: int | None
    final_state: tuple[int, ...]
    final_operator: OperatorMatrix


def _draw_below(getrandbits: Callable[[int], int], m: int) -> int:
    """Uniform draw from range(m), m >= 1, by random.Random's own rule for
    choice and randrange(m): m.bit_length() random bits, drawn again while
    they read m or more."""
    b = m.bit_length()
    r = getrandbits(b)
    while r >= m:
        r = getrandbits(b)
    return r


def random_product_process(
    rg: ReactionMatrix,
    steps: int,
    seed: int = 0,
    index: int = 0,
    start: tuple[int, ...] | None = None,
) -> ProductTrajectory:
    """Multiply random one-step operators and read the state they drive to.

    Each trajectory draws from its own stream, derived from the root seed
    and the trajectory index, so batches are reproducible and independent
    of evaluation order.  Draws read random.Random's words for randrange
    and choice: _draw_below per start entry, its rule inline per step, one
    getrandbits call per word, widths computed once per run.  On a potential
    matrix the product is the one-step operator of the composed index map
    p_t, all that is carried: its rank is the map's image size, and the
    final state is one read of the final operator at start.

    Once p_t is constant on every neighborhood N(i) the product has
    settled: p_{t+1}[i] is p_t's value on N(i) whichever neighbor is
    drawn, and p_{t+2} = p_t because i lies in N(j) for every j in N(i).
    That is p_t constant on each two-step component, which on a connected
    graph happens exactly at the minimum rank: 1, or 2 on a bipartite graph,
    where p_t sends each part into one part.  The remaining steps alternate
    the two maps and draw nothing more.  Absorption is that settle step,
    or None when the rank stays above the minimum for all steps.
    """
    if steps < 1:
        raise ValidationError("need at least one step")
    if steps > BOUND_PRODUCT_STEPS:
        raise BoundExceededError(
            f"random products: {steps} steps exceed the bound {BOUND_PRODUCT_STEPS}"
        )
    if not rg.is_potential():
        raise NonPotentialError(f"random products need a potential matrix: {rg._defect}")
    bits = random.Random(trajectory_seed(seed, index)).getrandbits
    k = len(rg.group.states)
    if start is None:
        start = tuple(_draw_below(bits, k) for _ in range(rg.n))
    elif len(start) != rg.n:
        raise ValidationError("start state length does not match the matrix")
    for x in start:
        if type(x) is not int or not 0 <= x < k:
            raise ValidationError(f"start entry {x!r} is not a state index in range({k})")
    start = tuple(start)
    widths = [(pool, len(pool), len(pool).bit_length()) for pool in rg.graph.adjacency]
    settled = theorem1_min_rank(rg.graph)

    pattern = tuple(range(rg.n))
    ranks = []
    absorbed = None
    for t in range(1, steps + 1):
        drawn = []
        for pool, m, b in widths:
            r = bits(b)
            while r >= m:
                r = bits(b)
            drawn.append(pattern[pool[r]])
        pattern = tuple(drawn)
        ranks.append(len(set(pattern)))
        if ranks[-1] == settled:
            absorbed, left = t, steps - t
            ranks += ranks[-1:] * left
            if left % 2:
                pattern = tuple(pattern[pool[0]] for pool, _, _ in widths)
            break
    final = star_product(pattern, rg)
    return ProductTrajectory(
        start=start,
        ranks=tuple(ranks),
        absorbed_at=absorbed,
        final_state=final.apply(start),
        final_operator=final,
    )
