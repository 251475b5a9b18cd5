"""Analysis documents and run configuration round trips."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balancenets.config import RunConfig, label_order, trajectory_seed
from balancenets.errors import ValidationError
from balancenets.groups import sign_group, symmetric_group
from balancenets.network import Marking, RelationGraph
from balancenets.report import analyze_marking, run_full_analysis


def _balanced_marking():
    graph = RelationGraph.complete([1, 2, 3])
    return Marking.from_names(
        graph, sign_group(), {(0, 1): "g", (0, 2): "g", (1, 2): "e"},
        symmetric=True,
    )


def test_analyze_marking_cross_checks_both_pipelines():
    report = analyze_marking(_balanced_marking(), digest="d" * 64)
    assert report["potential"]
    assert report["stationary_count"] == 2
    assert report["limit_exists"]
    assert report["core_states"] == [(-1, 1, 1), (1, -1, -1)]
    assert report["core_matches_closed_form"]
    assert report["characteristic_ok"]
    assert report["ideal_count"] == 3
    assert report["kernel_size"] == 3
    assert report["final_state_count"] == 2
    assert report["cross_check"] == "pass"
    assert report["timing_seconds"] is None


@pytest.mark.parametrize(
    "group, graph",
    [
        (sign_group(), RelationGraph.cycle([1, 2, 3, 4])),
        (symmetric_group(3), RelationGraph.cycle([1, 2, 3, 4])),
        (sign_group(), RelationGraph.from_undirected(
            [1, 2, 3, 4, 5], [(a, b) for a in (1, 2) for b in (3, 4, 5)]
        )),
    ],
)
def test_analyze_marking_cross_check_passes_on_bipartite_graphs(group, graph):
    # A gauge marking g(i, j) = s_i^-1 * s_j is potential.
    gauge = [group.element(i % len(group)) for i in range(1, len(graph) + 1)]
    values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
    report = analyze_marking(Marking(graph, group, values), digest="d" * 64)
    k = len(group.states)
    assert report["potential"]
    assert report["final_state_count"] == k * k
    assert report["stationary_count"] == k * (k + 1) // 2
    assert report["cross_check"] == "pass"


def test_analyze_marking_derives_artefacts_once_per_core_set(derivation_calls):
    analyze_marking(_balanced_marking(), digest="d" * 64)
    # analyze_marking and theoremB_verify each take one CoreSet; each
    # core_set decides A2 once and reads A1 off its own walks, with no
    # star marking.
    assert derivation_calls == {
        "star_marking": 0, "check_A1": 0, "check_A2": 2, "core_set": 2,
    }


def test_analyze_marking_skips_semigroup_when_not_potential():
    graph = RelationGraph.complete([1, 2, 3])
    marking = Marking.from_names(
        graph, sign_group(),
        {(0, 1): "g", (0, 2): "g", (1, 2): "g"},
        symmetric=True,
    )
    report = analyze_marking(marking, digest="d" * 64)
    assert not report["potential"]
    assert report["witness_cycle"] is not None
    assert report["witness_product"] == "g"
    assert report["ideal_count"] is None
    assert report["cross_check"] is None
    assert report["stationary_count"] == 1
    assert not report["limit_exists"]


def test_report_times_on_request():
    report = analyze_marking(_balanced_marking(), digest="d" * 64, timing=True)
    assert report["timing_seconds"] >= 0.0
    assert report["digest"] == "d" * 64


def test_report_carries_the_c8_ideal_fields():
    graph = RelationGraph.cycle(list(range(1, 9)))
    marking = Marking.from_names(
        graph, sign_group(), {(i, (i + 1) % 8): "e" for i in range(8)},
        symmetric=True,
    )
    report = analyze_marking(marking, digest="d" * 64)
    assert report["ideal_count"] == 16 and report["kernel_size"] == 32
    assert report["final_state_count"] == 4
    assert report["cross_check"] == "pass" and report["stationary_count"] == 3


def test_run_full_analysis_hashes_the_file(fixtures_dir):
    report = run_full_analysis(fixtures_dir / "gamma3_balanced.json", RunConfig())
    assert len(report["digest"]) == 64
    assert report["stationary_count"] == 2


def test_config_round_trip(tmp_path):
    cfg = RunConfig(seed=42, tau_num=1e-5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_json(path) == cfg


def test_config_validation():
    for tau in (0.0, -1.0, True, "x", None, math.inf, math.nan):
        with pytest.raises(ValidationError, match="^tau_num must be a finite positive number"):
            RunConfig(tau_num=tau)
    assert RunConfig(tau_num=1).tau_num == 1
    with pytest.raises(ValidationError):
        RunConfig(bound_states=4)
    with pytest.raises(ValidationError):
        RunConfig(seed=-1)
    with pytest.raises(ValidationError):
        RunConfig(seed=2 ** 64)
    with pytest.raises(ValidationError):
        RunConfig(out_path=7)
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"spice": 1})
    with pytest.raises(ValidationError):
        RunConfig.from_dict([1, 2])


@pytest.mark.parametrize("key", ["tau_dyn", "tau_alg", "bound_grp", "bound_semigroup"])
def test_config_rejects_removed_keys(key):
    # Markov rows are checked exactly in integers, so no tau_dyn is read;
    # involution and load_group use the constants TAU_ALG and BOUND_GRP;
    # the semigroup stage reads final states off kernel operators' images,
    # so it needs no node bound.
    with pytest.raises(ValidationError, match=rf"unknown config keys: \['{key}'\]"):
        RunConfig.from_dict({key: 1})


def test_trajectory_seed_splits_the_root():
    assert trajectory_seed(10, 0) == 10
    assert trajectory_seed(10, 5) == 15
    assert trajectory_seed(2 ** 64 - 1, 1) == 0
    with pytest.raises(ValidationError):
        trajectory_seed(10, -1)


_LABELS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(-2, 2), st.sampled_from("ab")
)


@given(st.lists(st.tuples(_LABELS, _LABELS), max_size=8))
def test_label_order_agrees_with_every_sort_that_works(labels):
    try:
        plain = sorted(labels)
    except TypeError:
        return
    # repr tells 1, 1.0 and true apart, which compare equal.
    assert repr(sorted(labels, key=label_order)) == repr(plain)
