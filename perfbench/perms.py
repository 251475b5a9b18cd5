"""Permutation groups kept apart from the program: tuples and plain composition.

The product convention is the program's: ``mul(g, h)(x) == g(h(x))``.
"""

from __future__ import annotations

import itertools


def mul(g, h):
    return tuple(g[x] for x in h)


def inv(g):
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[y] = x
    return tuple(out)


class Group:
    def __init__(self, labels, perms, names):
        self.labels = list(labels)
        self.elements = [tuple(p) for p in perms]
        self.names = dict(zip(self.elements, names))
        self.identity = tuple(range(len(self.labels)))
        self.non_identity = [p for p in self.elements if p != self.identity]

    @property
    def k(self) -> int:
        return len(self.labels)

    def to_json(self) -> dict:
        return {
            "states": self.labels,
            "elements": [
                {"name": self.names[p], "perm": list(p)} for p in self.elements
            ],
            "identity": self.names[self.identity],
        }


SIGN = Group([1, -1], [(0, 1), (1, 0)], ["e", "g"])
_S3 = sorted(itertools.permutations(range(3)))
S3 = Group(
    [0, 1, 2],
    _S3,
    ["e" if p == (0, 1, 2) else "s" + "".join(map(str, p)) for p in _S3],
)
