"""Path products, potentiality tests and potential field generation.

A marking is potential when the ordered product of marks along every closed
path is the identity.  That holds exactly when marks are consistent with a
node potential u built along a spanning tree: u(j) * g(j, k) == u(k) for
every edge.  The tree test is sound for non-abelian groups, unlike checks
that only cover a cycle basis.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import NonPotentialError, ValidationError
from .groups import GroupElement, ReactionGroup, sign_group
from .network import (
    Marking,
    Path,
    RelationGraph,
    StarMarking,
    StarPath,
    _tree_consistency,
    star_marking,
)


def product_integral(
    marking: Marking | StarMarking, path: Path | StarPath
) -> GroupElement:
    """Ordered product of marks along the path, of a marking or of its
    two-step marking; the empty path gives the identity."""
    acc = marking.group.identity
    for edge in path.edges:
        acc = acc * marking.mark(*edge)
    return acc


@dataclass(frozen=True)
class PotentialFunction:
    """Node potential with u(root) = identity and u(j) * g(j,k) = u(k)."""

    root: int
    values: dict[int, GroupElement]

    def check(self, marking: Marking) -> bool:
        return all(
            self.values[i] * marking.mark(i, j) == self.values[j]
            for i, j in marking.graph.directed_edges
        )


@dataclass(frozen=True)
class PotentialVerdict:
    ok: bool
    potential: PotentialFunction | None
    witness_cycle_nodes: tuple[int, ...] | None
    witness_product: GroupElement | None


def _walk_components(components, edges, identity) -> tuple:
    """Walk each component from its smallest node along the edges it tails.

    ``edges`` holds (tail, head, value, reverse_value) tuples.  Returns the
    verdict fields: ``True`` and one potential per component, or ``False``
    and the first witness.
    """
    potentials = []
    for comp in components:
        root = min(comp)
        tails = [e for e in edges if e[0] in comp]
        u, witness = _tree_consistency(
            sorted(comp), tails, root, identity, operator.mul, operator.eq
        )
        if witness is not None:
            return (False, None, *witness)
        potentials.append(PotentialFunction(root, u))
    return True, tuple(potentials), None, None


def is_potential(marking: Marking) -> PotentialVerdict:
    """Spanning-tree test with a cycle witness: the A1 loop on one component."""
    graph, mark = marking.graph, marking.mark
    edges = [(i, j, mark(i, j), mark(j, i)) for i, j in graph.directed_edges]
    ok, potentials, *witness = _walk_components(
        [range(len(graph))], edges, marking.group.identity
    )
    return PotentialVerdict(ok, potentials[0] if ok else None, *witness)


def _pair_marks(marking: Marking) -> list[list[GroupElement]]:
    """Mark u(i)^-1 * u(j) of every node pair, u the marking's potential.

    On an edge this is the mark itself; a non-potential marking raises.
    """
    verdict = is_potential(marking)
    if not verdict.ok:
        raise NonPotentialError(
            "complete extension needs a potential marking; "
            f"cycle {verdict.witness_cycle_nodes} multiplies to "
            f"{verdict.witness_product.name}"
        )
    u = verdict.potential.values
    return [[u[i].inverse() * u[j] for j in range(len(u))] for i in range(len(u))]


def complete_extension(marking: Marking) -> Marking:
    """Extend a potential marking to the complete graph on the same nodes.

    Every pair (i, j) gets u(i)^-1 * u(j) with u the potential function, so
    existing marks are kept.
    """
    marks = _pair_marks(marking)
    full = RelationGraph.complete(marking.graph.nodes)
    values = {(i, j): marks[i][j] for i, j in full.directed_edges}
    return Marking(full, marking.group, values)


@dataclass(frozen=True)
class StarPotentialReport:
    """Potentiality of the induced two-step marking, per component."""

    ok: bool
    potentials: tuple[PotentialFunction, ...] | None
    witness_cycle_nodes: tuple[int, ...] | None
    witness_product: GroupElement | None


def check_A1(marking: Marking) -> StarPotentialReport:
    """Potentiality of the induced marks on every two-step component."""
    marks = star_marking(marking)
    mark = marks.mark
    edges = [(i, j, mark(i, j, k), mark(j, i, k)) for i, j, k in marks.star.star_edges]
    fields = _walk_components(marks.star.components, edges, marking.group.identity)
    return StarPotentialReport(*fields)


@dataclass(frozen=True)
class CharacteristicReactions:
    """Per-node element a_i = g(i,j) * g(j,i), independent of the neighbor j."""

    values: dict[int, GroupElement]

    def uniform(self) -> GroupElement | None:
        elems = list(self.values.values())
        return elems[0] if all(e == elems[0] for e in elems) else None


def check_A2(marking: Marking) -> CharacteristicReactions | None:
    """Round-trip marks g(i,j)*g(j,i) must agree across neighbors of i."""
    graph = marking.graph
    values: dict[int, GroupElement] = {}
    for i in range(len(graph)):
        candidates = [
            marking.mark(i, j) * marking.mark(j, i) for j in graph.neighbors(i)
        ]
        if any(c != candidates[0] for c in candidates[1:]):
            return None
        values[i] = candidates[0]
    return CharacteristicReactions(values)


# -- potential field generation ---------------------------------------------


def generate_potential_fields(n: int, group: ReactionGroup | None = None):
    """All potential symmetric markings of the complete graph over {e, g}.

    The first-row marks g(1, m) are free binary choices; every other mark is
    forced to g(j, m) = g(1, j) * g(1, m).  Yields exactly 2**(n-1) distinct
    markings, in lexicographic order of the choice vector.
    """
    if n < 3:
        raise ValidationError("field generation needs at least three nodes")
    if group is None:
        group = sign_group()
    if len(group) != 2 or not group.involutive:
        raise ValidationError("field generation runs over a two-element group")
    e = group.identity
    g = next(x for x in group if not x.is_identity)
    graph = RelationGraph.complete(tuple(range(1, n + 1)))
    for bits in itertools.product((0, 1), repeat=n - 1):
        first_row = {m: (g if bits[m - 2] else e) for m in range(2, n + 1)}
        values: dict[tuple[int, int], GroupElement] = {}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if a == 1:
                    mark = first_row[b]
                else:
                    mark = first_row[a] * first_row[b]
                i, j = a - 1, b - 1
                values[(i, j)] = mark
                values[(j, i)] = mark
        yield Marking(graph, group, values)


def gamma3_solution_family(
    x1: GroupElement, x2: GroupElement, x3: GroupElement
) -> Marking:
    """Triangle marking with potential two-step marks, from three free elements.

    For any triple the induced marks satisfy a(1,2) * a(2,3) * a(3,1) = e on
    the two-step triangle, which is the single relation that matters there.
    """
    group = x1.group
    if x2.group is not group or x3.group is not group:
        raise ValidationError("family parameters must share one group")
    i2, i3 = x2.inverse(), x3.inverse()
    g12 = x1
    g31 = x2
    g32 = x3
    g21 = i3 * x2 * x1 * i3 * x2
    g13 = x1 * i3 * x2 * x1 * i3
    g23 = i3 * x2 * x1 * i3 * x2 * x1 * i3
    graph = RelationGraph.complete((1, 2, 3))
    values = {
        (0, 1): g12,
        (1, 0): g21,
        (0, 2): g13,
        (2, 0): g31,
        (1, 2): g23,
        (2, 1): g32,
    }
    return Marking(graph, group, values)


# -- two-block balance --------------------------------------------------------


def sign_by_identity(g: GroupElement) -> int:
    """Identity marks are friendly (+1), everything else hostile (-1)."""
    return 1 if g.is_identity else -1


def balance_signs(
    marking: Marking, sign_rule: Callable[[GroupElement], int] = sign_by_identity
) -> dict[tuple[int, int], int]:
    """Sign of every directed edge under the rule, checked to be +1 or -1.

    ``two_coloring(marking.graph, signs)`` then splits the nodes into two
    factions, or gives a closed walk crossing an odd number of hostile edges.
    """
    signs = {edge: sign_rule(g) for edge, g in marking.items()}
    bad = [e for e, s in signs.items() if s not in (-1, 1)]
    if bad:
        raise ValidationError(f"sign rule must return +1 or -1, got {signs[bad[0]]!r}")
    return signs
