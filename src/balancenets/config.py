"""Run configuration: size bounds, tolerances, the root seed, JSON input.

Floating-point comparisons in the toolkit funnel through the tolerances
below.  TAU_ALG guards exact algebraic identities evaluated in floating
point, and TAU_NUM (a run's tau_num) is the accuracy target for
quadrature-based results at the reference resolution (2**10 steps).
Transition probabilities need no tolerance: the Markov rows are checked
exactly, in integers.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from numbers import Real
from pathlib import Path

from .errors import ValidationError

TAU_ALG = 1e-9
TAU_NUM = 1e-6
# Tolerance for the pointwise field invariant b*c = 1 - a**2; the check is
# algebraic, so it shares the magnitude of TAU_ALG.
TAU_FLD = 1e-9

BOUND_STATES = 4096
BOUND_GRP = 720
# The most steps of one random product, and of absorb's runs * steps: each
# run keeps one rank per step until the output is written.
BOUND_PRODUCT_STEPS = 2 ** 20

REFERENCE_STEPS = 2 ** 10


def power_over(base: int, exp: int, bound: int) -> str | None:
    """base**exp as text when it exceeds bound, else None.

    base is at least 2**(b-1) for b = base.bit_length(), so at exp*(b-1)
    bits the power is past any bound of fewer bits and past 64 bits; it is
    built only below that, where it fits in twice those bits.  A count
    past 64 bits is written as base**exp.
    """
    if exp * (base.bit_length() - 1) < max(bound.bit_length(), 64):
        count = base ** exp
        if count <= bound:
            return None
        if count < 2 ** 64:
            return str(count)
    return f"{base}**{exp}"


def inline_json(source) -> bool:
    """Whether a source is JSON text, a string opening with ``{``, not a path."""
    return isinstance(source, str) and source.lstrip().startswith("{")


def read_json(source, what: str) -> dict:
    """JSON object from a file path, an inline ``{...}`` string or a dict.

    Malformed JSON and anything but an object raise ValidationError naming
    ``what``; a file that cannot be read raises OSError.
    """
    if isinstance(source, (str, os.PathLike)):
        inline = inline_json(source)
        text = source if inline else Path(source).read_text()
        try:
            source = json.loads(text)
        except json.JSONDecodeError as exc:
            where = what if inline else f"{what} {source}"
            raise ValidationError(f"{where}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(source, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return source


def json_scalar(value) -> bool:
    """Whether a JSON value is a string, a number, a boolean or null."""
    return value is None or isinstance(value, (str, int, float))


def label_key(label):
    """Key under which a JSON label is distinct: ``true`` is not ``1``,
    while equal numbers such as ``1`` and ``1.0`` stay one label."""
    return isinstance(label, bool), label


def label_text(label) -> str:
    """JSON object key of a node label: a string is its own key, any other
    label its JSON spelling (``1``, ``2.5``, ``true``, ``null``)."""
    return label if isinstance(label, str) else json.dumps(label)


_CONTAINERS = (list, tuple, dict)


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder of json.dumps for a container of scalars at depth: its
    items are split as indent=2 splits them there, without the brackets'
    own line breaks."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + "  " * (depth + 1), False, False, True,
    )


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: its label text, quoted."""
    if not isinstance(key, str):
        if not json_scalar(key):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = label_text(key)
    return json.encoder.encode_basestring_ascii(key)


class RawJson:
    """JSON text already written for its place in a document, as an
    iterable of string pieces; ``json_pieces`` passes them on as they are."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        self.pieces = pieces


# Item types that keep a container from going to the C encoder whole.
_NESTED = (*_CONTAINERS, RawJson)


def json_pieces(value, depth: int = 0):
    """Pieces of value as ``json.dumps(value, indent=2)`` writes it, nested
    depth deep: each ``RawJson`` inside goes out as its own pieces, and the
    text before, between and after them as one piece each.

    ``indent`` forces json's pure-Python encoder, so only containers that
    hold containers are walked here; every container of scalars goes to
    the C encoder whole, and its brackets are put on their own lines.
    """
    parts: list = []
    raw_at: list[int] = []

    def walk(value, depth: int) -> None:
        if not isinstance(value, _CONTAINERS) or not value:
            if isinstance(value, RawJson):
                raw_at.append(len(parts))
                parts.append(value)
            else:
                parts.extend(_flat_encoder(depth)(value, 0))
            return
        inner = "  " * (depth + 1)
        is_dict = isinstance(value, dict)
        opener, closer = "{}" if is_dict else "[]"
        # The distinct item types, found at C speed, are few.
        types = set(map(type, value.values() if is_dict else value))
        if not any(issubclass(t, _NESTED) for t in types):
            body = "".join(_flat_encoder(depth)(value, 0))[1:-1]
            parts.append(f"{opener}\n{inner}{body}\n{'  ' * depth}{closer}")
            return
        separator, comma = f"{opener}\n{inner}", ",\n" + inner
        for k, v in value.items() if is_dict else enumerate(value):
            parts.append(f"{separator}{_key_text(k)}: " if is_dict else separator)
            walk(v, depth + 1)
            separator = comma
        parts.append(f"\n{'  ' * depth}{closer}")

    walk(value, depth)
    start = 0
    for at in raw_at:
        yield "".join(parts[start:at])
        yield from parts[at].pieces
        start = at + 1
    del parts[:start]
    yield "".join(parts)


def json_text(value, depth: int = 0) -> str:
    """value as ``json.dumps(value, indent=2)`` writes it, nested depth deep."""
    return "".join(json_pieces(value, depth))


def label_texts(labels, what: str) -> dict[str, int]:
    """Index of each label by its text; two labels with one text raise."""
    by_text: dict[str, int] = {}
    for i, label in enumerate(labels):
        first = by_text.setdefault(label_text(label), i)
        if first != i:
            raise ValidationError(
                f"node labels {labels[first]!r} and {label!r} share the "
                f"{what} key {label_text(label)!r}"
            )
    return by_text


def label_order(value):
    """Sort key for JSON labels and tuples of them: null first, then numbers
    and booleans, then strings, each kind in Python's own order."""
    if isinstance(value, tuple):
        return tuple(map(label_order, value))
    if value is None:
        return (0,)
    return (2, value) if isinstance(value, str) else (1, value)


def lazy_module(name: str):
    """Module ``name`` in ``sys.modules``, executed on its first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class RunConfig:
    """Bounds, tolerances and seed for one analysis run."""

    bound_states: int = BOUND_STATES
    tau_num: float = TAU_NUM
    seed: int = 0
    out_path: str | None = None

    def __post_init__(self) -> None:
        tau = self.tau_num
        if not isinstance(tau, Real) or isinstance(tau, bool) or not 0.0 < tau < math.inf:
            raise ValidationError(f"tau_num must be a finite positive number, got {tau!r}")
        if not isinstance(self.bound_states, int) or isinstance(self.bound_states, bool):
            raise ValidationError("bound_states must be an integer")
        # Bounds below the smallest worked fixtures would make the tool useless.
        if self.bound_states < 8:
            raise ValidationError("bound_states must be at least 8")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError("seed must be an integer")
        if not (0 <= self.seed < 2 ** 64):
            raise ValidationError("seed must fit in 64 bits")
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise ValidationError("out_path must be a string or null")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValidationError("config payload must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, source) -> "RunConfig":
        return cls.from_dict(read_json(source, "config"))


def trajectory_seed(root_seed: int, index: int) -> int:
    """Derived stream for the index-th stochastic trajectory.

    The splitting rule is plain arithmetic on the 64-bit root seed so runs
    are reproducible from the single configured value: seed_i = root + i,
    wrapped to 64 bits.
    """
    if index < 0:
        raise ValidationError("trajectory index must be non-negative")
    return (root_seed + index) % (2 ** 64)
