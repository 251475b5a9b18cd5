"""Finite permutation groups acting on a shared state alphabet.

A reaction group is stored as an explicit list of permutations of the state
set together with a composition table.  The product convention matches how
marks act on states along a path: ``(g * h)(x) == g(h(x))``, so in a written
product the right factor is applied first.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import BOUND_GRP, json_scalar, label_key, read_json
from .errors import BoundExceededError, GroupMismatchError, ValidationError


@dataclass(frozen=True)
class StateSet:
    """Ordered alphabet of automaton states."""

    labels: tuple

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValidationError("state set must be non-empty")
        if len(set(map(label_key, self.labels))) != len(self.labels):
            raise ValidationError("state labels must be distinct")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label) -> int:
        try:
            return [label_key(x) for x in self.labels].index(label_key(label))
        except ValueError:
            raise ValidationError(f"unknown state label {label!r}") from None


class GroupElement:
    """One permutation of the state set, built once by its owning group, so
    equality is identity: equal groups built apart share no element."""

    __slots__ = ("group", "index")

    def __init__(self, group: "ReactionGroup", index: int):
        self.group = group
        self.index = index

    @property
    def perm(self) -> tuple[int, ...]:
        return self.group.perms[self.index]

    @property
    def name(self) -> str:
        return self.group.names[self.index]

    def __call__(self, state: int) -> int:
        """Apply the permutation to a state index."""
        return self.perm[state]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise GroupMismatchError("elements belong to different groups")
        return self.group._elements[self.group.table[self.index][other.index]]

    def inverse(self) -> "GroupElement":
        group = self.group
        return group._elements[group.inverse_index[self.index]]

    @property
    def is_identity(self) -> bool:
        return self.index == self.group.identity_index

    def __repr__(self) -> str:
        return f"GroupElement({self.name!r})"


class ReactionGroup:
    """Finite permutation group with a precomputed composition table."""

    def __init__(
        self,
        states: StateSet | Sequence,
        perms: Iterable[Sequence[int]],
        names: Sequence[str] | None = None,
    ):
        if not isinstance(states, StateSet):
            states = StateSet(tuple(states))
        self.states = states
        k = len(states)
        self.perms: tuple[tuple[int, ...], ...] = tuple(tuple(p) for p in perms)
        order = len(self.perms)
        if order == 0:
            raise ValidationError("group needs at least one element")
        _check_order(order)
        for p in self.perms:
            if sorted(p) != list(range(k)):
                raise ValidationError(f"{p!r} is not a permutation of {k} states")
        if len(set(self.perms)) != order:
            raise ValidationError("duplicate permutations in group description")

        if names is None:
            names = [f"g{i}" for i in range(order)]
        self.names = tuple(names)
        if len(self.names) != order or len(set(self.names)) != order:
            raise ValidationError("element names must be distinct, one per element")

        self._index_of = {p: i for i, p in enumerate(self.perms)}
        identity_perm = tuple(range(k))
        if identity_perm not in self._index_of:
            raise ValidationError("group does not contain the identity permutation")
        self.identity_index = self._index_of[identity_perm]

        # pg after ph is itemgetter(*ph)(pg); on one state, itemgetter
        # returns the item, and the one permutation composes to itself.
        after = [operator.itemgetter(*ph) for ph in self.perms] if k > 1 else [tuple]
        table = [tuple([self._index_of.get(h(pg)) for h in after]) for pg in self.perms]
        if any(None in row for row in table):
            raise ValidationError("element list is not closed under composition")
        self.table: tuple[tuple[int, ...], ...] = tuple(table)

        # A finite set of permutations closed under composition is a group,
        # so every row of the table holds the identity.
        self.inverse_index = tuple(row.index(self.identity_index) for row in table)

        self.involutive = all(
            self.table[i][i] == self.identity_index for i in range(order)
        )

        # Every lookup and product returns one of these, never a copy.
        self._elements = tuple(GroupElement(self, i) for i in range(order))
        self.identity = self._elements[self.identity_index]

    # -- element access -------------------------------------------------

    def element(self, key) -> GroupElement:
        if isinstance(key, GroupElement):
            if key.group is not self:
                raise GroupMismatchError("element belongs to a different group")
            return key
        if isinstance(key, str):
            try:
                return self._elements[self.names.index(key)]
            except ValueError:
                raise ValidationError(f"unknown element name {key!r}") from None
        if isinstance(key, int) and not isinstance(key, bool):
            if not (0 <= key < len(self.perms)):
                raise ValidationError(f"element index {key} out of range")
            return self._elements[key]
        raise ValidationError(f"cannot interpret {key!r} as a group element")

    def element_by_perm(self, perm: Sequence[int]) -> GroupElement:
        idx = self._index_of.get(tuple(perm))
        if idx is None:
            raise ValidationError(f"permutation {tuple(perm)} is not in the group")
        return self._elements[idx]

    def state_labels(self, state: Sequence[int]) -> tuple:
        """Labels of a joint state given as one state index per node."""
        labels = self.states.labels
        return tuple(labels[s] for s in state)

    def __len__(self) -> int:
        return len(self.perms)

    def __iter__(self):
        return iter(self._elements)

    # -- operations ------------------------------------------------------

    def _check(self, g: GroupElement) -> None:
        if g.group is not self:
            raise GroupMismatchError("elements belong to different groups")


def _check_order(order: int, text: str | None = None) -> None:
    """BoundExceededError when a group of this order is past BOUND_GRP."""
    if order > BOUND_GRP:
        raise BoundExceededError(f"group order {text or order} exceeds the bound {BOUND_GRP}")


def _cycle_count(perm: Sequence[int]) -> int:
    """Number of cycles of a permutation of range(len(perm))."""
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        count += 1
        s = start
        while not seen[s]:
            seen[s] = True
            s = perm[s]
    return count


def orbit_count(g: GroupElement) -> int:
    """Number of cycles of g on the state set, fixed points included."""
    return _cycle_count(g.perm)


def pair_orbit_count(v: GroupElement, w: GroupElement) -> int:
    """Cycles of the two-step shift (x, y) -> (v(y), w(x)) on state pairs."""
    if v.group is not w.group:
        raise GroupMismatchError("elements belong to different groups")
    k = len(v.group.states)
    # The pair (x, y) is stored as x * k + y.
    return _cycle_count([v.perm[p % k] * k + w.perm[p // k] for p in range(k * k)])


def solve_characteristic(group: ReactionGroup, a: GroupElement) -> list[GroupElement]:
    """All v with v*v == a, sorted by descending orbit count.

    The sort order puts first the solution that splits the state set into
    the largest number of invariant pieces, which is the one a most
    nonergodic network realizes.  Ties break on element index so the result
    is deterministic.
    """
    group._check(a)
    hits = [v for v in group if (v * v) == a]
    hits.sort(key=lambda v: (-orbit_count(v), v.index))
    return hits


def solve_characteristic_pair(
    group: ReactionGroup, a_i: GroupElement, a_j: GroupElement
) -> list[tuple[GroupElement, GroupElement]]:
    """All pairs (v, w) with v*w == a_i and w*v == a_j, most orbits first."""
    group._check(a_i)
    group._check(a_j)
    # v * w == a_i fixes w = v^-1 * a_i, so one pass over v finds every pair.
    hits = []
    for v in group:
        w = v.inverse() * a_i
        if w * v == a_j:
            hits.append((v, w))
    hits.sort(key=lambda vw: (-pair_orbit_count(*vw), vw[0].index, vw[1].index))
    return hits


# -- stock groups ---------------------------------------------------------


def sign_group() -> ReactionGroup:
    """The two-element group flipping the states +1 and -1."""
    return ReactionGroup(StateSet((1, -1)), [(0, 1), (1, 0)], names=("e", "g"))


def cyclic_group(n: int) -> ReactionGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be positive")
    _check_order(n)
    perms = [tuple((s + shift) % n for s in range(n)) for shift in range(n)]
    names = ["e"] + [f"r{shift}" for shift in range(1, n)]
    return ReactionGroup(StateSet(tuple(range(n))), perms, names=names)


def symmetric_group(n: int) -> ReactionGroup:
    if n < 1:
        raise ValidationError("symmetric group degree must be positive")
    # BOUND_GRP is below 20!, so 20! stands in for any larger n! and the
    # order is written as n! once it no longer fits in 64 bits.
    _check_order(math.factorial(min(n, 20)), None if n <= 20 else f"{n}!")
    perms = sorted(itertools.permutations(range(n)))
    names = []
    for p in perms:
        if p == tuple(range(n)):
            names.append("e")
        else:
            names.append("s" + "".join(str(i) for i in p))
    return ReactionGroup(StateSet(tuple(range(n))), perms, names=names)


# -- JSON interchange ------------------------------------------------------


def load_group(source) -> ReactionGroup:
    """Build a group from a JSON object, a JSON string or a file path.

    Expected shape::

        {"states": [...],
         "elements": [{"name": "e", "perm": [0, 1]}, ...],
         "identity": "e"}
    """
    data = read_json(source, "group")
    for key in ("states", "elements", "identity"):
        if key not in data:
            raise ValidationError(f"group description is missing {key!r}")
    for key in ("states", "elements"):
        if not isinstance(data[key], list):
            raise ValidationError(f"group {key!r} must be a list, got {data[key]!r}")
    labels = tuple(data["states"])
    for label in labels:
        if not json_scalar(label):
            raise ValidationError(f"group 'states' must be JSON scalars, got {label!r}")
    states = StateSet(labels)
    perms = []
    names = []
    for i, entry in enumerate(data["elements"]):
        if not isinstance(entry, dict) or "name" not in entry or "perm" not in entry:
            raise ValidationError(f"element #{i} needs 'name' and 'perm'")
        if not isinstance(entry["name"], str):
            raise ValidationError(f"element #{i} 'name' must be a string, got {entry['name']!r}")
        perm = entry["perm"]
        # `true` and `1.0` sort like 1, but they index no state.
        if (
            not isinstance(perm, list)
            or any(type(p) is not int for p in perm)
            or len(perm) != len(states)
            or sorted(perm) != list(range(len(states)))
        ):
            raise ValidationError(
                f"element {entry.get('name', i)!r}: perm must be a bijection "
                f"on {len(states)} state indices"
            )
        perms.append(tuple(perm))
        names.append(entry["name"])
    group = ReactionGroup(states, perms, names=names)
    declared = data["identity"]
    if not isinstance(declared, str):
        raise ValidationError(f"group 'identity' must be an element name, got {declared!r}")
    if declared not in names:
        raise ValidationError(f"identity {declared!r} is not an element name")
    if names.index(declared) != group.identity_index:
        raise ValidationError(
            f"declared identity {declared!r} is not the identity permutation"
        )
    return group


def group_to_json(group: ReactionGroup) -> dict:
    return {
        "states": list(group.states.labels),
        "elements": [
            {"name": group.names[i], "perm": list(group.perms[i])}
            for i in range(len(group))
        ],
        "identity": group.names[group.identity_index],
    }
