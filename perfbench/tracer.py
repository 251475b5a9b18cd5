"""Per-module spans recorded from outside the program.

``Tracer.install`` replaces each traced function in every ``balancenets``
module that looks it up, so calls made inside the program (such as
``theoremB_verify`` calling ``core_set``) are timed too.  Spans stay in
memory; ``round_metrics`` folds one round of them into the per-layer
metrics and ``dump`` writes them out.

A span's time is its duration.  A function's time counts only spans with
no enclosing span of the same function, and a layer's time only spans
with no enclosing span of the same layer, so recursion and nesting are
not counted twice.  Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

# Layer -> functions.  A (class, method) pair traces a method.
TARGETS = {
    "report": ["run_full_analysis"],
    "network": ["load_network", "star_marking"],
    "potential": ["is_potential", "check_A1", "check_A2"],
    "dynamics": [
        "build_markov", "limit_exists", "core_set", "theoremB_verify",
        ("MarkovModel", "recurrent_class_indices"),
    ],
    "semigroup": ["enumerate_ideals", "final_states", "random_product_process"],
    "smoothfield": ["p_integral", "convergence_report", "infinitesimal_residual", "discretize"],
}

# Per-layer metrics and their units, in report order.
METRICS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "report.self_s": "s",
    "network.load_network_s": "s",
    "potential.s": "s",
    "potential.check_A1_calls": "count",
    "potential.check_A2_calls": "count",
    "network.star_marking_calls": "count",
    "dynamics.build_markov_s": "s",
    "dynamics.recurrent_classes_s": "s",
    "dynamics.limit_exists_s": "s",
    "dynamics.core_set_s": "s",
    "dynamics.theoremB_verify_s": "s",
    "dynamics.core_set_calls": "count",
    "dynamics.states": "count",
    "dynamics.nonzeros": "count",
    "dynamics.recurrent_classes": "count",
    "semigroup.enumerate_ideals_s": "s",
    "semigroup.enumerate_ideals_calls": "count",
    "semigroup.final_states_s": "s",
    "semigroup.random_product_process_s": "s",
    "semigroup.kernel_size": "count",
    "semigroup.ideals": "count",
    "semigroup.product_steps": "count",
    "semigroup.absorbed_ratio": "ratio",
    "smoothfield.p_integral_s": "s",
    "smoothfield.convergence_report_s": "s",
    "smoothfield.infinitesimal_residual_s": "s",
    "smoothfield.discretize_s": "s",
    "smoothfield.steps": "count",
}


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, attr: str, value: str) -> bool:
        node = self.parent
        while node is not None:
            if getattr(node, attr) == value:
                return True
            node = node.parent
        return False

    def self_time(self) -> float:
        """Duration minus the union of the child intervals."""
        covered, edge = 0.0, self.start
        for s, e in sorted((c.start, c.end) for c in self.children):
            s, e = max(s, edge), min(e, self.end)
            if e > s:
                covered += e - s
                edge = e
        return self.duration - covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self.op: Span | None = None
        self._counted: dict[int, weakref.ref] = {}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "balancenets" or name.startswith("balancenets.")
        ]
        for layer, names in TARGETS.items():
            home = sys.modules[f"balancenets.{layer}"]
            for name in names:
                if isinstance(name, tuple):
                    cls = getattr(home, name[0])
                    self._patch(cls, name[1], "dynamics.recurrent_classes", layer)
                    continue
                original = getattr(home, name)
                # A function defined elsewhere (star_marking) keeps its home layer.
                owner = original.__module__.rsplit(".", 1)[-1]
                wrapped = self._wrap(original, f"{owner}.{name}", owner)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapped)

    def _patch(self, owner, attr: str, span_name: str, layer: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span_name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.op
            span = Span(name, layer, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            if observe:
                observe(args, result)
            return result

        return traced

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    # -- sizes observed at the boundaries -------------------------------------

    def _observe_build_markov(self, args, model):
        self.sizes["dynamics.states"] += len(model.states)
        self.sizes["dynamics.nonzeros"] += sum(len(s) for s in model.support)

    def _observe_recurrent_classes(self, args, classes):
        # The model caches its classes; count each model once.
        model = args[0]
        seen = self._counted.get(id(model))
        if seen is None or seen() is not model:
            self._counted[id(model)] = weakref.ref(model)
            self.sizes["dynamics.recurrent_classes"] += len(classes)

    def _observe_enumerate_ideals(self, args, enumeration):
        self.sizes["semigroup.kernel_size"] += enumeration.kernel_size
        self.sizes["semigroup.ideals"] += len(enumeration.ideals)

    def _observe_random_product_process(self, args, trajectory):
        self.sizes["semigroup.product_steps"] += len(trajectory.ranks)
        self.sizes["semigroup.runs"] += 1
        self.sizes["semigroup.absorbed"] += trajectory.absorbed_at is not None

    def _observe_p_integral(self, args, matrix):
        # Called positionally everywhere in the program: (field, curve, n, parity).
        self.sizes["smoothfield.steps"] += args[2]

    # -- operations and rounds ------------------------------------------------

    def begin_op(self) -> Span:
        self.op = Span("cli.main", "cli", None)
        self.op.start = time.perf_counter()
        return self.op

    def end_op(self) -> None:
        self.op.end = time.perf_counter()
        self.spans.append(self.op)
        self.op = None

    def round_metrics(self, import_s: float) -> dict[str, float]:
        """Fold the spans and sizes of one round, then start a new round."""
        fn_time: dict[str, float] = defaultdict(float)
        layer_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            if not span.has_ancestor("name", span.name):
                fn_time[span.name] += span.duration
            if not span.has_ancestor("layer", span.layer):
                layer_time[span.layer] += span.duration
            if span.layer in ("cli", "report"):
                self_time[span.layer] += span.self_time()
        sizes = self.sizes
        runs = sizes.get("semigroup.runs", 0)
        out = {
            "cli.import_s": import_s,
            "cli.self_s": self_time["cli"],
            "report.self_s": self_time["report"],
            "potential.s": layer_time["potential"],
            "semigroup.absorbed_ratio": sizes["semigroup.absorbed"] / runs if runs else 0.0,
        }
        for metric in METRICS:
            if metric in out:
                continue
            if metric.endswith("_calls"):
                out[metric] = calls[metric[: -len("_calls")]]
            elif metric.endswith("_s"):
                out[metric] = fn_time[metric[: -len("_s")]]
            else:
                out[metric] = sizes[metric]
        self.last_round = self.spans
        self.spans = []
        self.sizes = defaultdict(int)
        return out

    def dump(self, path) -> None:
        """Write the spans of the last folded round as JSON lines."""
        ids = {id(s): n for n, s in enumerate(self.last_round)}
        with open(path, "w") as fh:
            for n, s in enumerate(self.last_round):
                parent = ids.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps({
                    "id": n, "name": s.name, "parent": parent,
                    "start": s.start, "end": s.end,
                }) + "\n")
