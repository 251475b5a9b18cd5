"""Full-pipeline analysis of one network, as the document ``analyze`` prints.

The document carries every number the acceptance checks assert on.  Output
is deterministic for a fixed input file and seed; wall-clock timing is
filled in only on request so that default documents stay byte-identical.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from .config import RunConfig, inline_json, label_order
from .dynamics import build_markov, core_set, limit_exists, stationary_count, theoremB_verify
from .network import Marking, load_network
from .potential import is_potential
from .semigroup import ReactionMatrix, enumerate_ideals, final_states


def analyze_marking(
    marking: Marking,
    digest: str,
    config: RunConfig | None = None,
    timing: bool = False,
) -> dict:
    """One network's ``analyze`` document, keys in printed order.

    The semigroup keys are None when the marking is not potential, and
    ``timing_seconds`` is None unless ``timing`` is set.
    """
    config = config or RunConfig()
    started = time.perf_counter()
    graph = marking.graph

    # The state bound is checked before any core state is built.
    verdict = is_potential(marking)
    model = build_markov(marking, bound=config.bound_states)
    n_measures = stationary_count(model)
    converges = limit_exists(model)
    core = core_set(marking)
    characteristic = theoremB_verify(marking)

    doc = {
        "digest": digest,
        "seed": config.seed,
        "nodes": len(graph),
        "edges": len(graph.undirected_edges),
        "group_order": len(marking.group),
        "potential": verdict.ok,
        "witness_cycle": None,
        "witness_product": None,
        "a1": core.a1_ok,
        "a2": core.a2_ok,
        "stationary_count": n_measures,
        "limit_exists": converges,
        "core_size": len(core.states),
        "core_states": sorted(map(marking.group.state_labels, core.states), key=label_order),
        "core_matches_closed_form": core.matches_closed_form,
        "characteristic_ok": characteristic.ok,
        "ideal_count": None,
        "kernel_size": None,
        "final_state_count": None,
        "cross_check": None,
        "timing_seconds": None,
    }
    if not verdict.ok:
        doc["witness_cycle"] = [graph.nodes[i] for i in verdict.witness_cycle_nodes]
        doc["witness_product"] = verdict.witness_product.name
    else:
        rm = ReactionMatrix.from_marking(marking)
        enumeration = enumerate_ideals(rm)
        finals = final_states(rm, enumeration)
        doc["ideal_count"] = len(enumeration.ideals)
        doc["kernel_size"] = enumeration.kernel_size
        doc["final_state_count"] = len(finals)
        # The final states must be exactly the states of the closed classes.
        # Their counts differ on bipartite graphs: k**2 against k(k+1)/2.
        recurrent = frozenset().union(*model.recurrent_classes())
        doc["cross_check"] = "pass" if finals == recurrent else "fail"

    if timing:
        doc["timing_seconds"] = round(time.perf_counter() - started, 6)
    return doc


def run_full_analysis(
    path: str | Path,
    config: RunConfig | None = None,
    timing: bool = False,
) -> dict:
    """Load a network, a file or inline JSON text, and run every check the
    toolkit offers on it.  The digest is of the file's bytes or the text's."""
    raw = path.encode() if inline_json(path) else Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    marking = load_network(path)
    return analyze_marking(marking, digest, config, timing)
