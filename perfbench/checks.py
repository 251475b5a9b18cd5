"""Checks of the program's outputs, computed apart from the program.

Potential markings are checked against closed forms: relabelling node i's
states by its gauge element s_i turns the dynamics into the plain voter
model.  Other markings are checked against the benchmark's own one-step
support, built with numpy and analysed with ``scipy.sparse.csgraph``.
Smooth-field outputs are checked against the parity law and the
path-independence of products of a potential field.

Every check returns a ``Verdict``: ``ok``, ``known-fault`` (the program's
``cross_check`` on bipartite graphs, see ``check_analyze``) or ``wrong``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from perms import inv, mul

OK = "ok"
KNOWN = "known-fault"
WRONG = "wrong"

# Accuracy target of the smooth-field products (the program's TAU_NUM).
TAU_NUM = 1e-6


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""


def _verdict(problems: list[str]) -> Verdict:
    return Verdict(WRONG, "; ".join(problems)) if problems else Verdict(OK)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def bipartition(nodes: int, neighbors) -> tuple[frozenset, frozenset] | None:
    """Two-colouring by breadth-first search, or None on an odd cycle."""
    colour = {0: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in neighbors[i]:
            if j not in colour:
                colour[j] = 1 - colour[i]
                queue.append(j)
            elif colour[j] == colour[i]:
                return None
    a = frozenset(i for i in range(nodes) if colour[i] == 0)
    return a, frozenset(range(nodes)) - a


class NetFacts:
    """What a correct program must say about one generated network."""

    def __init__(self, spec):
        self.spec = spec
        self.k = spec.group.k
        self.n = spec.nodes
        self.labels = spec.group.labels
        self.neighbors = spec.neighbors()
        self.parts = bipartition(self.n, self.neighbors)

    def label_state(self, x) -> tuple:
        return tuple(self.labels[v] for v in x)

    # -- closed forms of potential markings ---------------------------------

    @cached_property
    def closed_form(self) -> dict:
        """Voter-model answers, mapped back through the gauge.

        A state with relabelled values y has x_i = s_i^-1(y_i).  The core,
        the final states and the absorbing or oscillating states coincide:
        y constant (non-bipartite), or constant on each side (bipartite).
        """
        spec, k, n = self.spec, self.k, self.n
        back = [inv(s) for s in spec.gauge]
        if self.parts is None:
            blocks = [frozenset(range(n))]
            sizes = [1] * k
            stationary, limit, ideals, min_rank = k, True, n, 1
        else:
            blocks = list(self.parts)
            sizes = sorted([1] * k + [2] * (k * (k - 1) // 2))
            stationary, limit = k * (k + 1) // 2, k < 2
            ideals, min_rank = len(blocks[0]) * len(blocks[1]), 2
        block_of = {i: b for b, block in enumerate(blocks) for i in block}
        core = {
            self.label_state(back[i][ys[block_of[i]]] for i in range(n))
            for ys in itertools.product(range(k), repeat=len(blocks))
        }
        return {
            "stationary": stationary,
            "limit": limit,
            "class_sizes": sizes,
            "core": core,
            "ideals": ideals,
            "min_rank": min_rank,
            "blocks": blocks,
        }

    # -- the benchmark's own one-step support --------------------------------

    @cached_property
    def chain(self) -> dict:
        """Closed classes, periods and single-image states of the support."""
        spec, k, n = self.spec, self.k, self.n
        size = k ** n
        digits = (np.arange(size)[:, None] // k ** np.arange(n - 1, -1, -1)) % k
        rows = np.arange(size)
        cols = np.zeros(size, dtype=np.int64)
        for i in range(n):
            allowed = np.zeros((size, k), dtype=bool)
            for j in self.neighbors[i]:
                perm = np.asarray(spec.marks[(i, j)])
                allowed[np.arange(size), perm[digits[:, j]]] = True
            keep_rows, keep_cols = [], []
            for v in range(k):
                sel = allowed[rows, v]
                keep_rows.append(rows[sel])
                keep_cols.append(cols[sel] * k + v)
            rows, cols = np.concatenate(keep_rows), np.concatenate(keep_cols)
        graph = csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(size, size)
        )
        count, label = connected_components(graph, directed=True, connection="strong")
        leaves = np.zeros(count, dtype=bool)
        crossing = label[rows] != label[cols]
        leaves[label[rows[crossing]]] = True
        closed = np.flatnonzero(~leaves)
        periods = []
        for c in closed:
            root = int(np.flatnonzero(label == c)[0])
            dist = shortest_path(graph, unweighted=True, indices=root)
            inside = label[rows] == c
            lag = dist[rows[inside]] + 1 - dist[cols[inside]]
            periods.append(int(np.gcd.reduce(np.abs(lag).astype(np.int64))))
        out_degree = np.bincount(rows, minlength=size)
        single = out_degree == 1
        return {
            "states": size,
            "nonzeros": len(rows),
            "stationary": len(closed),
            "class_sizes": sorted(int(s) for s in np.bincount(label)[closed]),
            "limit": all(p == 1 for p in periods),
            "core": {self.label_state(digits[r]) for r in np.flatnonzero(single)},
            # Each single-image state steps to a single-image state.
            "core_closed": bool(single[cols[single[rows]]].all()),
        }

    def expected_chain(self) -> dict:
        """Chain answers: closed forms when potential, own support otherwise."""
        if self.spec.potential:
            cf = self.closed_form
            return {
                "states": self.k ** self.n,
                "stationary": cf["stationary"],
                "class_sizes": cf["class_sizes"],
                "limit": cf["limit"],
                "core": cf["core"],
                "core_closed": True,
            }
        return self.chain

    @cached_property
    def exact_rows(self) -> list[dict[int, Fraction]]:
        """Row x, target y: prod_i #{j in N(i): g(i,j)(x_j) = y_i} / deg(i)."""
        spec, k, n = self.spec, self.k, self.n
        rows = []
        for x in itertools.product(range(k), repeat=n):
            per_node = []
            for i in range(n):
                counts: dict[int, int] = {}
                for j in self.neighbors[i]:
                    v = spec.marks[(i, j)][x[j]]
                    counts[v] = counts.get(v, 0) + 1
                per_node.append((len(self.neighbors[i]), sorted(counts.items())))
            row = {}
            for combo in itertools.product(*(c for _, c in per_node)):
                code = 0
                num = den = 1
                for (deg, _), (v, c) in zip(per_node, combo):
                    code = code * k + v
                    num *= c
                    den *= deg
                row[code] = Fraction(num, den)
            rows.append(row)
        return rows


# -- Markov, analyze, ideals, absorb -------------------------------------------


def check_markov(doc: dict, facts: NetFacts, exact: bool = False) -> Verdict:
    want = facts.expected_chain()
    p: list[str] = []
    _expect(p, "states", doc["states"], want["states"])
    _expect(p, "stationary_count", doc["stationary_count"], want["stationary"])
    _expect(p, "limit_exists", doc["limit_exists"], want["limit"])
    _expect(p, "recurrent_class_sizes", sorted(doc["recurrent_class_sizes"]), want["class_sizes"])
    _expect(p, "W0", {tuple(x) for x in doc["W0"]}, want["core"])
    _expect(p, "core.size", doc["core"]["size"], len(want["core"]))
    _expect(p, "core.closed", doc["core"]["closed"], want["core_closed"])
    if facts.spec.potential:
        _expect(p, "core.matches_closed_form", doc["core"]["matches_closed_form"], True)
    if exact:
        rows = doc["exact_rows"]
        _expect(p, "exact row count", len(rows), want["states"])
        for r, (got, ref) in enumerate(zip(rows, facts.exact_rows)):
            parsed = {int(c): Fraction(v) for c, v in got.items()}
            if sum(parsed.values()) != 1:
                p.append(f"exact row {r} sums to {sum(parsed.values())}")
                break
            if parsed != ref:
                p.append(f"exact row {r} differs from the recomputed row")
                break
    return _verdict(p)


def witness_product(facts: NetFacts, cycle_labels) -> tuple | None:
    """Ordered product of marks along a closed walk of 1-based labels."""
    idx = [c - 1 for c in cycle_labels]
    if len(idx) < 2 or idx[0] != idx[-1]:
        return None
    acc = facts.spec.group.identity
    for a, b in zip(idx, idx[1:]):
        if (a, b) not in facts.spec.marks:
            return None
        acc = mul(acc, facts.spec.marks[(a, b)])
    return acc


def check_report(doc: dict, facts: NetFacts) -> Verdict:
    """One ``analyze`` report.

    Known fault: the report compares the final-state count with the
    stationary count.  On bipartite graphs those are k**2 and k(k+1)/2, so
    ``cross_check`` reads "fail" although both counts are right.  Such a
    report counts as failed but not as wrong.
    """
    spec = facts.spec
    want = facts.expected_chain()
    p: list[str] = []
    _expect(p, "nodes", doc["nodes"], facts.n)
    _expect(p, "edges", doc["edges"], len(spec.edges))
    _expect(p, "group_order", doc["group_order"], len(spec.group.elements))
    _expect(p, "potential", doc["potential"], spec.potential)
    _expect(p, "stationary_count", doc["stationary_count"], want["stationary"])
    _expect(p, "limit_exists", doc["limit_exists"], want["limit"])
    _expect(p, "core_size", doc["core_size"], len(want["core"]))
    _expect(p, "core_states", {tuple(x) for x in doc["core_states"]}, want["core"])
    cross = doc["cross_check"]
    if spec.potential:
        cf = facts.closed_form
        _expect(p, "witness_cycle", doc["witness_cycle"], None)
        _expect(p, "core_matches_closed_form", doc["core_matches_closed_form"], True)
        _expect(p, "ideal_count", doc["ideal_count"], cf["ideals"])
        _expect(p, "final_state_count", doc["final_state_count"], len(cf["core"]))
        if not p and cross == "fail" and facts.parts is not None:
            return Verdict(KNOWN, "cross_check fails on a bipartite graph")
        _expect(p, "cross_check", cross, "pass")
    else:
        product = witness_product(facts, doc["witness_cycle"] or [])
        if product is None:
            p.append(f"witness {doc['witness_cycle']!r} is not a closed walk")
        elif product == spec.group.identity:
            p.append("witness cycle multiplies to the identity")
        else:
            _expect(p, "witness_product", doc["witness_product"], spec.group.names[product])
        _expect(p, "ideal_count", doc["ideal_count"], None)
        _expect(p, "cross_check", cross, None)
    return _verdict(p)


def check_analyze(doc: dict, facts_list: list[NetFacts]) -> Verdict:
    docs = doc["reports"] if len(facts_list) > 1 else [doc]
    if len(docs) != len(facts_list):
        return Verdict(WRONG, f"{len(docs)} reports for {len(facts_list)} nets")
    verdicts = [check_report(d, f) for d, f in zip(docs, facts_list)]
    for status in (WRONG, KNOWN):
        for v in verdicts:
            if v.status == status:
                return v
    return Verdict(OK)


def check_ideals(doc: dict, facts: NetFacts) -> Verdict:
    cf = facts.closed_form
    p: list[str] = []
    _expect(p, "ideal_count", doc["ideal_count"], cf["ideals"])
    _expect(p, "theorem1_expected", doc["theorem1_expected"], cf["ideals"])
    _expect(p, "match", doc["match"], True)
    _expect(p, "min_rank", doc["min_rank"], cf["min_rank"])
    _expect(p, "generators", len(doc["generators"]), cf["ideals"])
    _expect(p, "final_state_count", doc["final_state_count"], len(cf["core"]))
    _expect(p, "final_states", {tuple(x) for x in doc["final_states"]}, cf["core"])
    return _verdict(p)


def check_absorb(doc: dict, facts: NetFacts, runs: int, steps: int) -> Verdict:
    """Absorbed runs end constant on each two-step component, after relabelling."""
    cf = facts.closed_form
    gauge = facts.spec.gauge
    index = {label: v for v, label in enumerate(facts.labels)}
    p: list[str] = []
    _expect(p, "runs", doc["runs"], runs)
    _expect(p, "steps", doc["steps"], steps)
    _expect(p, "min_rank", doc["min_rank"], cf["min_rank"])
    trajectories = doc["trajectories"]
    _expect(p, "trajectory count", len(trajectories), runs)
    absorbed = [t for t in trajectories if t["absorbed_at"] is not None]
    _expect(p, "absorbed", doc["absorbed"], len(absorbed))
    for t in absorbed:
        y = [gauge[i][index[label]] for i, label in enumerate(t["final_state"])]
        if any(len({y[i] for i in block}) != 1 for block in cf["blocks"]):
            p.append(f"absorbed run ends off the closed form: {t['final_state']}")
            break
        if t["final_rank"] != cf["min_rank"]:
            p.append(f"absorbed run ends at rank {t['final_rank']}")
            break
    return _verdict(p)


def check_check_potential(doc: dict, facts: NetFacts) -> Verdict:
    p: list[str] = []
    _expect(p, "nodes", doc["nodes"], facts.n)
    _expect(p, "potential", doc["potential"], facts.spec.potential)
    _expect(p, "witness", doc["witness"], None)
    return _verdict(p)


# -- smooth fields -----------------------------------------------------------


def _det(m) -> float:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _gap(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def check_p_integral(doc: dict, kind: str, parity: str, seen: dict) -> Verdict:
    """Parity law for every product; path independence for even ones.

    ``seen`` holds the matrices of earlier operations of the same round,
    keyed by (field, kind, parity), so a polyline is compared with the
    line that has the same ends.
    """
    p: list[str] = []
    sign = 1.0 if parity == "even" else -1.0
    matrix = doc["matrix"]
    if abs(_det(matrix) - sign) > TAU_NUM:
        p.append(f"det {_det(matrix)!r} violates {parity} parity")
    if parity == "even" and kind == "loop" and _gap(matrix, np.eye(2)) > TAU_NUM:
        p.append(f"closed loop is {_gap(matrix, np.eye(2)):.3e} from the identity")
    if parity == "even" and kind == "polyline":
        line = seen.get((doc["field"], "line", parity))
        if line is None:
            p.append("no line product to compare with")
        elif _gap(matrix, line) > TAU_NUM:
            p.append(f"polyline differs from the line by {_gap(matrix, line):.3e}")
    seen[(doc["field"], kind, parity)] = matrix
    return _verdict(p)


def check_residual(doc: dict) -> Verdict:
    p: list[str] = []
    _expect(p, "passes", doc["passes"], True)
    if not math.isfinite(doc["max_residual"]):
        p.append("max_residual is not finite")
    return _verdict(p)


def check_discretize(doc: dict, embed) -> Verdict:
    """Signs follow the parity tags, and every triangle product closes."""
    p: list[str] = []
    _expect(p, "potential", doc["potential"], True)
    marks = {key: np.asarray(m) for key, m in doc["marks"].items()}
    n = embed.net.nodes
    for a, b in itertools.permutations(range(1, n + 1), 2):
        key = f"{a}->{b}"
        sign = -1 if embed.parity(a, b) == "odd" else 1
        _expect(p, f"sign {key}", doc["signs"][key], sign)
        if abs(_det(marks[key]) - sign) > TAU_NUM:
            p.append(f"det of {key} violates the parity law")
    worst = 0.0
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        loop = marks[f"{a}->{b}"] @ marks[f"{b}->{c}"] @ marks[f"{c}->{a}"]
        worst = max(worst, _gap(loop, np.eye(2)))
    if worst > TAU_NUM:
        p.append(f"a triangle product is {worst:.3e} from the identity")
    return _verdict(p)
