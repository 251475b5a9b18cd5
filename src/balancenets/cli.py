"""Command line front end: JSON in, JSON out, one subcommand per pipeline.

Every subcommand prints a single JSON document to stdout (or ``--out``)
and exits 0; failures exit nonzero after printing a machine-readable
``{"error": {"type": ..., "message": ...}}`` document.  Every error an
input can cause is raised before the first byte is written; the document
is written as its pieces come, so one raised after that (a full disk, a
closed pipe) leaves it cut short and exits 1 with a traceback.  Output for a
fixed input file and seed is byte-identical between runs; wall-clock
timing is attached only when ``--timing`` is passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from .config import (
    BOUND_PRODUCT_STEPS, REFERENCE_STEPS, RawJson, RunConfig, json_pieces, label_order,
    label_texts, lazy_module, power_over, read_json,
)
from .errors import BalanceNetsError, BoundExceededError, ValidationError
from .groups import load_group
from .network import load_network, network_to_json, two_coloring
from .potential import balance_signs, generate_potential_fields, is_potential

# Modules that only some commands use, numpy among them, run on their first
# attribute read: a command runs only the modules it reads.
dynamics = lazy_module(f"{__package__}.dynamics")
involution = lazy_module(f"{__package__}.involution")
report = lazy_module(f"{__package__}.report")
semigroup = lazy_module(f"{__package__}.semigroup")
smoothfield = lazy_module(f"{__package__}.smoothfield")
np = lazy_module("numpy")

# Named demonstration fields for the smooth subcommands.  The canonical
# families compose a parameter map, in array form, with the standard
# one-parameter solutions; "nonpotential" deliberately fails the residual
# test.
_FIELD_BUILDERS = {
    "elliptic": lambda: smoothfield.InvolutionField.from_parameter(
        lambda x, y: x + y, "elliptic", name="elliptic"
    ),
    "elliptic-wave": lambda: smoothfield.InvolutionField.from_parameter(
        lambda x, y: smoothfield.pointwise(math.sin, x) + y * y, "elliptic", name="elliptic-wave"
    ),
    "hyperbolic": lambda: smoothfield.InvolutionField.from_parameter(
        lambda x, y: x + y, "hyperbolic", name="hyperbolic"
    ),
    "constant": lambda: smoothfield.InvolutionField.constant(
        involution.InvolutionMatrix(0.0, 1.0, 1.0)
    ),
    "nonpotential": lambda: smoothfield.InvolutionField.from_components(
        lambda x, y: x * y,
        lambda x, y: math.sqrt(1.0 - (x * y) ** 2),
        lambda x, y: math.sqrt(1.0 - (x * y) ** 2),
        name="nonpotential",
    ),
}


def _load_config(args) -> RunConfig:
    config = RunConfig.from_json(args.config) if args.config else RunConfig()
    seed = getattr(args, "seed", None)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return config


def _load_curve(spec: str) -> smoothfield.ParameterizedCurve:
    """Curve from an inline JSON object or a path to one.

    Shapes: {"type": "line", "from": [x, y], "to": [x, y]} and
    {"type": "polyline", "points": [[x, y], ...]}.
    """
    payload = read_json(spec, "curve spec")
    kind = payload.get("type")
    if kind not in ("line", "polyline"):
        raise ValidationError(f"curve type must be 'line' or 'polyline', got {kind!r}")
    for key in ("from", "to") if kind == "line" else ("points",):
        if key not in payload:
            raise ValidationError(f"curve spec of type {kind!r} is missing {key!r}")
    if kind == "line":
        return smoothfield.ParameterizedCurve.line(payload["from"], payload["to"])
    return smoothfield.ParameterizedCurve.polyline(payload["points"])


# -- subcommand handlers ----------------------------------------------------------


def _cmd_check_potential(args, config: RunConfig) -> dict:
    marking = load_network(args.net)
    verdict = is_potential(marking)
    # A1 and A2 come off the core set's double-cover walks, as in analyze.
    core = dynamics.core_set(marking)
    a2 = core.characteristic
    payload = {
        "nodes": len(marking.graph),
        "edges": len(marking.graph.undirected_edges),
        "potential": verdict.ok,
        "witness": None,
        "a1": core.a1_ok,
        "a2": a2 is not None,
    }
    if not verdict.ok:
        payload["witness"] = {
            "cycle": [marking.graph.nodes[i] for i in verdict.witness_cycle_nodes],
            "product": verdict.witness_product.name,
        }
    if a2 is not None:
        keys = list(label_texts(marking.graph.nodes, "characteristic"))
        payload["characteristic"] = {keys[i]: el.name for i, el in sorted(a2.values.items())}
    return payload


def _cmd_gen_fields(args, config: RunConfig) -> dict:
    group = load_group(args.group) if args.group else None
    over = power_over(2, args.nodes - 1, config.bound_states)
    if over:
        raise BoundExceededError(
            f"{over} generated fields exceed the bound {config.bound_states}"
        )
    fields = list(generate_potential_fields(args.nodes, group))
    return {
        "nodes": args.nodes,
        "count": len(fields),
        "fields": [network_to_json(m) for m in fields],
    }


def _cmd_markov(args, config: RunConfig) -> dict:
    marking = load_network(args.net)
    model = dynamics.build_markov(marking, bound=config.bound_states)
    core = dynamics.core_set(marking)
    classes = model.recurrent_class_indices()
    payload = {
        "states": model.size,
        "stationary_count": dynamics.stationary_count(model),
        "limit_exists": dynamics.limit_exists(model),
        "W0": sorted(map(marking.group.state_labels, core.states), key=label_order),
        "recurrent_class_sizes": [len(cls) for cls in classes],
        "core": {
            "size": len(core.states),
            "closed": core.closed,
            "matches_closed_form": core.matches_closed_form,
        },
    }
    if args.exact:
        payload["exact_rows"] = _exact_rows(model)
    return payload


def _exact_rows(model) -> RawJson:
    """The chain's rows as json_text writes them at depth 1, a block of rows
    at a time: row r is {c: "p"} over its nonzeros (r, c) in column order,
    with the target's position in the lexicographic state order as key and
    the probability p as a JSON string.

    Each column's key text is made once per call and each distinct
    probability's text once per value; a block's pieces interleave the two
    by indexing, with the separator or the row opener in front of each key.
    The choice law is checked here, before any block is written.
    """
    from fractions import Fraction

    D, blocks = model.blocks()
    keys = [f'"{c}": ' for c in range(model.size)]
    after = np.array([",\n      " + key for key in keys], dtype=object)
    opening = np.array(["\n    },\n    {\n      " + key for key in keys], dtype=object)
    texts: dict[int, str] = {}

    def pieces():
        yield "[\n    {"
        for span, indptr, cols, nums in blocks:
            distinct, at = np.unique(nums, return_inverse=True)
            distinct = distinct.tolist()
            for a in distinct:
                if a not in texts:
                    texts[a] = f'"{Fraction(a, D)}"'
            out = np.empty(2 * len(cols), dtype=object)
            out[0::2] = after[cols]
            starts = indptr[:-1]
            out[2 * starts] = opening[cols[starts]]
            if span.start == 0:
                out[0] = "\n      " + keys[cols[0]]
            out[1::2] = np.array([texts[a] for a in distinct], dtype=object)[at]
            yield "".join(out.tolist())
        yield "\n    }\n  ]"

    return RawJson(pieces())


def _cmd_balance(args, config: RunConfig) -> dict:
    marking = load_network(args.net)
    signs = balance_signs(marking)
    parts, cycle = two_coloring(marking.graph, signs)
    nodes = marking.graph.nodes
    payload = {
        "nodes": len(nodes),
        "balanced": parts is not None,
        "partition": None,
        "witness": None,
    }
    if parts is not None:
        payload["partition"] = [
            sorted((nodes[i] for i in part), key=label_order) for part in parts
        ]
    else:
        payload["witness"] = {
            "cycle": [nodes[i] for i in cycle],
            "hostile_edges": sum(
                1 for a, b in zip(cycle, cycle[1:]) if signs[(a, b)] < 0
            ),
        }
    return payload


def _cmd_ideals(args, config: RunConfig) -> dict:
    marking = load_network(args.net)
    rm = semigroup.ReactionMatrix.from_marking(marking)
    enumeration = semigroup.enumerate_ideals(rm)
    reachable = semigroup.final_states(rm, enumeration)
    nodes = rm.graph.nodes
    return {
        "ideal_count": len(enumeration.ideals),
        "kernel_size": enumeration.kernel_size,
        "min_rank": enumeration.min_rank,
        "theorem1_expected": enumeration.expected_count,
        "match": enumeration.matches_expected,
        "generators": [
            {
                "kind": ideal.kind,
                "nodes": [nodes[i] for i in ideal.nodes],
                "size": len(ideal.elements),
            }
            for ideal in enumeration.ideals
        ],
        "final_state_count": len(reachable),
        "final_states": sorted(map(rm.group.state_labels, reachable), key=label_order),
    }


def _cmd_absorb(args, config: RunConfig) -> dict:
    if args.runs < 1:
        raise ValidationError(f"--runs must be at least 1, got {args.runs}")
    if args.steps < 1:
        raise ValidationError(f"--steps must be at least 1, got {args.steps}")
    if args.runs * args.steps > BOUND_PRODUCT_STEPS:
        raise BoundExceededError(
            f"absorb: --runs {args.runs} times --steps {args.steps} makes "
            f"{args.runs * args.steps} product steps, which exceeds the bound "
            f"{BOUND_PRODUCT_STEPS}"
        )
    marking = load_network(args.net)
    rm = semigroup.ReactionMatrix.from_marking(marking)
    min_rank = semigroup.theorem1_min_rank(rm.graph)
    trajectories = [
        semigroup.random_product_process(rm, args.steps, seed=config.seed, index=i)
        for i in range(args.runs)
    ]
    absorbed = [t for t in trajectories if t.absorbed_at is not None]
    finals = sorted(
        {rm.group.state_labels(t.final_state) for t in trajectories}, key=label_order
    )
    mean_step = (
        round(sum(t.absorbed_at for t in absorbed) / len(absorbed), 6)
        if absorbed
        else None
    )
    return {
        "runs": args.runs,
        "steps": args.steps,
        "seed": config.seed,
        "min_rank": min_rank,
        "absorbed": len(absorbed),
        "mean_absorption_step": mean_step,
        "final_states_seen": [list(s) for s in finals],
        "trajectories": [
            {
                "start": rm.group.state_labels(t.start),
                "absorbed_at": t.absorbed_at,
                "final_state": rm.group.state_labels(t.final_state),
                "final_rank": t.ranks[-1],
            }
            for t in trajectories
        ],
    }


def _cmd_smooth_check_residual(args, config: RunConfig) -> dict:
    if args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {args.grid}")
    h = args.h
    if not (0.0 < h < math.inf):
        raise ValidationError(f"--h must be a positive finite number, got {h!r}")
    field = _FIELD_BUILDERS[args.field]()
    (x0, x1), (y0, y1) = field.domain
    pad = 2 * h + 1e-9
    if x0 + pad >= x1 - pad or y0 + pad >= y1 - pad:
        raise ValidationError(f"step {h} leaves no interior sample points")
    step_x = (x1 - x0 - 2 * pad) / max(args.grid - 1, 1)
    step_y = (y1 - y0 - 2 * pad) / max(args.grid - 1, 1)
    # y varies fastest; the first maximal point in this order is reported,
    # and a NaN norm is never maximal.  Blocks of points keep memory flat.
    worst, at = -1.0, None
    size, block = args.grid * args.grid, smoothfield._BLOCK
    for lo in range(0, size, block):
        ix, iy = np.divmod(np.arange(lo, min(lo + block, size)), args.grid)
        xs, ys = x0 + pad + ix * step_x, y0 + pad + iy * step_y
        norms = np.abs(smoothfield._residuals(field, xs, ys, h)).max(axis=(1, 2))
        norms[np.isnan(norms)] = -1.0
        i = int(norms.argmax())
        if norms[i] > worst:
            worst, at = norms[i].item(), [round(xs[i].item(), 12), round(ys[i].item(), 12)]
    if worst < 0:
        raise ValidationError(f"step {h} gives a NaN residual at every sample point")
    return {
        "field": args.field,
        "grid": args.grid,
        "h": h,
        "max_residual": worst,
        "argmax": at,
        "passes": worst <= config.tau_num * 100,
    }


def _cmd_smooth_p_integral(args, config: RunConfig) -> dict:
    field = _FIELD_BUILDERS[args.field]()
    curve = _load_curve(args.curve)
    refined = smoothfield.convergence_report(field, curve, args.n, args.parity)
    matrix = refined.value
    det = float(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    return {
        "field": args.field,
        "n": args.n,
        "parity": args.parity,
        "matrix": matrix.tolist(),
        "det": det,
        "refinement_difference": refined.difference,
    }


def _cmd_smooth_discretize(args, config: RunConfig) -> dict:
    marking = load_network(args.net)
    field = _FIELD_BUILDERS[args.field]()
    embedding, rules = smoothfield.load_embedding(args.embedding, marking.graph)
    marks = smoothfield.discretize(field, embedding, rules, tol=config.tau_num)
    nodes = marking.graph.nodes
    return {
        "field": args.field,
        "potential": marks.potential_ok,
        "max_defect": marks.max_defect,
        "signs": {
            f"{nodes[i]}->{nodes[j]}": marks.signs[(i, j)]
            for i, j in marking.graph.directed_edges
        },
        "marks": {
            f"{nodes[i]}->{nodes[j]}": marks.mark(i, j).tolist()
            for i, j in marking.graph.directed_edges
        },
    }


def _cmd_analyze(args, config: RunConfig) -> dict:
    docs = [report.run_full_analysis(p, config, args.timing) for p in args.net]
    if len(docs) == 1:
        return docs[0]
    return {"reports": docs}


# -- argument parsing -------------------------------------------------------------


# Built once per process: parsing leaves no state in the parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancenets",
        description="Potential analysis of reaction-marked networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run configuration")
    common.add_argument("--out", help="write the JSON document here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-potential", parents=[common], help="tree test plus the two star criteria"
    )
    p.add_argument("--net", required=True, help="marked network JSON file")
    p.set_defaults(handler=_cmd_check_potential)

    p = sub.add_parser(
        "gen-fields", parents=[common], help="all potential two-reaction markings of K_n"
    )
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--group", help="JSON file with a two-element reaction group")
    p.set_defaults(handler=_cmd_gen_fields)

    p = sub.add_parser(
        "markov", parents=[common], help="synchronous-dynamics chain statistics"
    )
    p.add_argument("--net", required=True)
    p.add_argument(
        "--exact", action="store_true", help="emit fraction-valued transition rows"
    )
    p.set_defaults(handler=_cmd_markov)

    p = sub.add_parser(
        "balance", parents=[common], help="two-faction split by friendly/hostile signs"
    )
    p.add_argument("--net", required=True)
    p.set_defaults(handler=_cmd_balance)

    p = sub.add_parser(
        "ideals", parents=[common], help="minimal left ideals of the operator semigroup"
    )
    p.add_argument("--net", required=True)
    p.set_defaults(handler=_cmd_ideals)

    p = sub.add_parser(
        "absorb", parents=[common], help="random operator products until rank collapse"
    )
    p.add_argument("--net", required=True)
    p.add_argument("--runs", type=int, default=32)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_absorb)

    p = sub.add_parser("smooth", parents=[], help="smooth involution field tools")
    smooth_sub = p.add_subparsers(dest="smooth_command", required=True)

    q = smooth_sub.add_parser(
        "check-residual", parents=[common], help="max mixed-derivative residual on a grid"
    )
    q.add_argument("--grid", type=int, default=5, help="samples per axis")
    q.add_argument("--h", type=float, default=1e-3, help="finite-difference step")
    q.add_argument("--field", default="elliptic", choices=sorted(_FIELD_BUILDERS))
    q.set_defaults(handler=_cmd_smooth_check_residual)

    q = smooth_sub.add_parser(
        "p-integral", parents=[common], help="ordered midpoint product along a curve"
    )
    q.add_argument("--curve", required=True, help="JSON curve spec (inline or path)")
    q.add_argument("--n", type=int, default=REFERENCE_STEPS)
    q.add_argument("--parity", choices=("even", "odd"), default="even")
    q.add_argument("--field", default="elliptic", choices=sorted(_FIELD_BUILDERS))
    q.set_defaults(handler=_cmd_smooth_p_integral)

    q = smooth_sub.add_parser(
        "discretize", parents=[common], help="edge matrices of a field on an embedded graph"
    )
    q.add_argument("--net", required=True, help="network JSON (graph topology)")
    q.add_argument("--embedding", required=True, help="embedding JSON file")
    q.add_argument("--field", default="elliptic", choices=sorted(_FIELD_BUILDERS))
    q.set_defaults(handler=_cmd_smooth_discretize)

    p = sub.add_parser(
        "analyze", parents=[common], help="full pipeline report for one or more networks"
    )
    p.add_argument(
        "--net", action="append", required=True, help="repeatable network JSON file or inline JSON"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timing", action="store_true", help="attach wall-clock seconds")
    p.set_defaults(handler=_cmd_analyze)

    return parser


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the document's pieces as they come, then a newline."""
    if out_path:
        with open(out_path, "w") as out:
            out.writelines(json_pieces(payload))
            out.write("\n")
    else:
        sys.stdout.writelines(json_pieces(payload))
        sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_path = getattr(args, "out", None)
    try:
        config = _load_config(args)
        if out_path is None:
            out_path = config.out_path
        payload = args.handler(args, config)
    except BalanceNetsError as exc:
        _emit({"error": {"type": exc.code, "message": str(exc)}}, out_path)
        return 2
    except OSError as exc:
        _emit({"error": {"type": "io", "message": str(exc)}}, out_path)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        _emit({"error": {"type": "validation", "message": str(exc)}}, out_path)
        return 2
    _emit(payload, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
