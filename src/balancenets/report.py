"""Full-pipeline analysis of one network, as a flat serializable report.

The report carries every number the acceptance checks assert on.  Output
is deterministic for a fixed input file and seed; wall-clock timing is
attached only on request so that default reports stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .config import RunConfig, inline_json, json_text, label_order
from .dynamics import build_markov, core_set, limit_exists, stationary_count, theoremB_verify
from .errors import ValidationError
from .network import Marking, load_network
from .potential import is_potential
from .semigroup import ReactionMatrix, enumerate_ideals, final_states


@dataclass(frozen=True)
class AnalysisReport:
    """Losslessly serializable summary of one network analysis."""

    digest: str
    seed: int
    nodes: int
    edges: int
    group_order: int
    potential: bool
    witness_cycle: tuple | None
    witness_product: str | None
    a1: bool
    a2: bool
    stationary_count: int
    limit_exists: bool
    core_size: int
    core_states: tuple
    core_matches_closed_form: bool | None
    characteristic_ok: bool
    ideal_count: int | None
    kernel_size: int | None
    final_state_count: int | None
    cross_check: str | None
    timing_seconds: float | None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json_text(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown report keys: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise ValidationError(f"missing report keys: {sorted(missing)}")
        data = dict(data)
        if data["witness_cycle"] is not None:
            data["witness_cycle"] = tuple(data["witness_cycle"])
        data["core_states"] = tuple(tuple(s) for s in data["core_states"])
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def analyze_marking(
    marking: Marking,
    digest: str,
    config: RunConfig | None = None,
    timing: bool = False,
) -> AnalysisReport:
    config = config or RunConfig()
    started = time.perf_counter()

    verdict = is_potential(marking)
    witness_cycle = None
    witness_product = None
    if not verdict.ok:
        witness_cycle = tuple(
            marking.graph.nodes[i] for i in verdict.witness_cycle_nodes
        )
        witness_product = verdict.witness_product.name

    model = build_markov(marking, bound=config.bound_states)
    n_measures = stationary_count(model)
    converges = limit_exists(model)

    core = core_set(marking)
    core_states = tuple(sorted(map(marking.group.state_labels, core.states), key=label_order))
    characteristic = theoremB_verify(marking)

    ideal_count = None
    kernel_size = None
    final_count = None
    cross = None
    if verdict.ok:
        rm = ReactionMatrix.from_marking(marking)
        enumeration = enumerate_ideals(rm)
        finals = final_states(rm, enumeration)
        ideal_count = len(enumeration.ideals)
        kernel_size = enumeration.kernel_size
        final_count = len(finals)
        # The final states must be exactly the states of the closed classes.
        # Their counts differ on bipartite graphs: k**2 against k(k+1)/2.
        recurrent = frozenset().union(*model.recurrent_classes())
        cross = "pass" if finals == recurrent else "fail"

    elapsed = round(time.perf_counter() - started, 6) if timing else None
    return AnalysisReport(
        digest=digest,
        seed=config.seed,
        nodes=len(marking.graph),
        edges=len(marking.graph.undirected_edges),
        group_order=len(marking.group),
        potential=verdict.ok,
        witness_cycle=witness_cycle,
        witness_product=witness_product,
        a1=core.a1_ok,
        a2=core.a2_ok,
        stationary_count=n_measures,
        limit_exists=converges,
        core_size=len(core.states),
        core_states=core_states,
        core_matches_closed_form=core.matches_closed_form,
        characteristic_ok=characteristic.ok,
        ideal_count=ideal_count,
        kernel_size=kernel_size,
        final_state_count=final_count,
        cross_check=cross,
        timing_seconds=elapsed,
    )


def run_full_analysis(
    path: str | Path,
    config: RunConfig | None = None,
    timing: bool = False,
) -> AnalysisReport:
    """Load a network, a file or inline JSON text, and run every check the
    toolkit offers on it.  The digest is of the file's bytes or the text's."""
    raw = path.encode() if inline_json(path) else Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    marking = load_network(path)
    return analyze_marking(marking, digest, config, timing)
