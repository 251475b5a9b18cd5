"""Command line interface: subcommands, JSON contracts and exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balancenets
from balancenets import cli, potential, semigroup
from balancenets.cli import _build_parser, main
from balancenets.config import BOUND_PRODUCT_STEPS, json_text, lazy_module, power_over
from balancenets.groups import cyclic_group, sign_group, symmetric_group
from balancenets.network import Marking, RelationGraph, network_to_json
from balancenets.report import run_full_analysis


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_potential_balanced(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "check-potential", "--net", str(fixtures_dir / "gamma3_balanced.json")
    )
    assert code == 0
    assert payload["potential"] is True
    assert payload["witness"] is None
    assert payload["a1"] is True and payload["a2"] is True
    assert payload["characteristic"] == {"1": "e", "2": "e", "3": "e"}


def test_check_potential_reports_witness(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "check-potential", "--net", str(fixtures_dir / "gamma3_allg.json")
    )
    assert code == 0
    assert payload["potential"] is False
    assert payload["witness"]["product"] == "g"
    assert len(payload["witness"]["cycle"]) >= 3


def test_gen_fields_counts(capsys):
    code, payload = run_cli(capsys, "gen-fields", "--nodes", "3")
    assert code == 0
    assert payload["count"] == 4
    assert len(payload["fields"]) == 4
    code, payload = run_cli(capsys, "gen-fields", "--nodes", "4")
    assert payload["count"] == 8


@pytest.mark.parametrize("nodes, count", [(14, "8192"), (100000001, "2**100000000")])
def test_gen_fields_bound_writes_a_count_past_64_bits_as_a_power(capsys, nodes, count):
    code, payload = run_cli(capsys, "gen-fields", "--nodes", str(nodes))
    assert code == 2
    assert payload["error"] == {
        "type": "bound-exceeded",
        "message": f"{count} generated fields exceed the bound 4096",
    }


class _NoPower(int):
    def __pow__(self, exp):
        raise AssertionError("built a power past the bound")


def test_power_over_decides_from_the_exponent():
    assert power_over(2, 12, 4096) is None
    assert power_over(2, 13, 4096) == "8192"
    assert power_over(2, 64, 2 ** 64) is None
    assert power_over(2, 64, 4096) == "2**64"
    assert power_over(2 ** 64 - 1, 1, 4096) == str(2 ** 64 - 1)
    assert power_over(3, 40, 4096) == str(3 ** 40)
    assert power_over(3, 41, 4096) == "3**41"
    assert power_over(_NoPower(2), 10 ** 12, 4096) == "2**1000000000000"
    assert power_over(_NoPower(6), 5700, 65536) == "6**5700"


def test_ideals_closure_cap_reports_bound_exceeded(capsys, monkeypatch, fixtures_dir):
    monkeypatch.setattr(semigroup, "_CLOSURE_CAP", 2)
    code, payload = run_cli(
        capsys, "ideals", "--net", str(fixtures_dir / "gamma3_balanced.json")
    )
    assert code == 2
    assert payload["error"] == {
        "type": "bound-exceeded",
        "message": "operator closure exceeded the safety cap",
    }


def test_markov_summary(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "markov", "--net", str(fixtures_dir / "gamma3_balanced.json")
    )
    assert code == 0
    assert payload["states"] == 8
    assert payload["stationary_count"] == 2
    assert payload["limit_exists"] is True
    assert payload["core"]["size"] == 2
    assert payload["core"]["matches_closed_form"] is True
    assert sorted(tuple(s) for s in payload["W0"]) == [(-1, 1, 1), (1, -1, -1)]


def test_ideals_summary(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "ideals", "--net", str(fixtures_dir / "gamma3_balanced.json")
    )
    assert code == 0
    assert payload["ideal_count"] == 3
    assert payload["kernel_size"] == 3
    assert payload["theorem1_expected"] == 3
    assert payload["match"] is True
    assert [g["kind"] for g in payload["generators"]] == ["column"] * 3
    assert payload["final_state_count"] == 2
    assert sorted(tuple(s) for s in payload["final_states"]) == [
        (-1, 1, 1),
        (1, -1, -1),
    ]


def test_markov_exact_rows(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys,
        "markov",
        "--net",
        str(fixtures_dir / "gamma3_balanced.json"),
        "--exact",
    )
    assert code == 0
    rows = payload["exact_rows"]
    assert len(rows) == 8
    from fractions import Fraction

    for row in rows:
        assert sum(Fraction(p) for p in row.values()) == 1


def test_out_writes_the_bytes_of_stdout(capsys, tmp_path, fixtures_dir):
    argv = ["markov", "--exact", "--net", str(fixtures_dir / "k4_complete.json")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "markov.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 80), 2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(alphabet=st.sampled_from('[]{},:"\\\n\t\x00 aZé€😀')),
    st.text(),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_text_writes_the_bytes_of_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [object(), [1, object()], {"a": [object()]}, [[1], {"b": object()}], {(1,): 1}, {(1,): [1]}],
    ids=["scalar", "flat list", "nested", "deep", "flat key", "nested key"],
)
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "argv,assembled",
    [
        (["markov"], 0),
        (["markov", "--exact"], 1),
        (["analyze"], 0),
        (["ideals"], 0),
        (["absorb", "--runs", "4", "--steps", "16"], 0),
        (["check-potential"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_only_exact_rows_assemble_the_chain(capsys, monkeypatch, fixtures_dir, argv, assembled):
    from balancenets import dynamics

    calls = []
    real = dynamics._assemble
    monkeypatch.setattr(dynamics, "_assemble", lambda *args: calls.append(args) or real(*args))
    assert main(argv + ["--net", str(fixtures_dir / "k4_complete.json")]) == 0
    assert json.loads(capsys.readouterr().out)
    assert len(calls) == assembled


def test_balance_verdicts(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "balance", "--net", str(fixtures_dir / "gamma3_balanced.json")
    )
    assert code == 0
    assert payload["balanced"] is True
    assert payload["partition"] == [[1], [2, 3]]
    assert payload["witness"] is None

    code, payload = run_cli(
        capsys, "balance", "--net", str(fixtures_dir / "gamma3_allg.json")
    )
    assert code == 0
    assert payload["balanced"] is False
    assert payload["witness"]["hostile_edges"] % 2 == 1
    cycle = payload["witness"]["cycle"]
    assert cycle[0] == cycle[-1]


def test_ideals_requires_potential_marking(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "ideals", "--net", str(fixtures_dir / "gamma3_allg.json")
    )
    assert code == 2
    assert payload["error"]["type"] == "non-potential"


def test_absorb_runs_are_reproducible(capsys, fixtures_dir):
    args = (
        "absorb",
        "--net",
        str(fixtures_dir / "gamma3_balanced.json"),
        "--runs",
        "4",
        "--steps",
        "32",
        "--seed",
        "5",
    )
    code, first = run_cli(capsys, *args)
    assert code == 0
    assert first["runs"] == 4
    assert first["absorbed"] == 4
    assert all(t["final_rank"] == 1 for t in first["trajectories"])
    finals = {tuple(s) for s in first["final_states_seen"]}
    assert finals <= {(-1, 1, 1), (1, -1, -1)}
    _, second = run_cli(capsys, *args)
    assert first == second


# stdout of `absorb --runs 8 --steps 64 --seed 7`: its sha256 and its parse.
ABSORB_GOLDEN = {
    "gamma3_balanced.json": (
        "e9aa7f62a6b5a7164b1576ed33036ad8f57e681f651a54088087c8bc629e3de2",
        {
            "runs": 8, "steps": 64, "seed": 7, "min_rank": 1, "absorbed": 8,
            "mean_absorption_step": 5.625,
            "final_states_seen": [[-1, 1, 1], [1, -1, -1]],
            "trajectories": [
                {"start": [-1, 1, -1], "absorbed_at": 4, "final_state": [-1, 1, 1], "final_rank": 1},
                {"start": [1, -1, -1], "absorbed_at": 17, "final_state": [1, -1, -1], "final_rank": 1},
                {"start": [-1, -1, -1], "absorbed_at": 4, "final_state": [-1, 1, 1], "final_rank": 1},
                {"start": [1, -1, -1], "absorbed_at": 2, "final_state": [1, -1, -1], "final_rank": 1},
                {"start": [-1, -1, -1], "absorbed_at": 3, "final_state": [-1, 1, 1], "final_rank": 1},
                {"start": [-1, -1, -1], "absorbed_at": 4, "final_state": [-1, 1, 1], "final_rank": 1},
                {"start": [-1, -1, 1], "absorbed_at": 6, "final_state": [-1, 1, 1], "final_rank": 1},
                {"start": [1, 1, -1], "absorbed_at": 5, "final_state": [1, -1, -1], "final_rank": 1},
            ],
        },
    ),
    "k4_complete.json": (
        "735ecbc4190efd32db075f1793ee0198afadecd344f8e6153f3981e74f5e50a7",
        {
            "runs": 8, "steps": 64, "seed": 7, "min_rank": 1, "absorbed": 8,
            "mean_absorption_step": 5.125,
            "final_states_seen": [[-1, -1, -1, -1], [1, 1, 1, 1]],
            "trajectories": [
                {"start": [-1, 1, -1, 1], "absorbed_at": 2, "final_state": [1, 1, 1, 1], "final_rank": 1},
                {"start": [1, -1, -1, 1], "absorbed_at": 8, "final_state": [-1, -1, -1, -1], "final_rank": 1},
                {"start": [-1, -1, -1, 1], "absorbed_at": 3, "final_state": [-1, -1, -1, -1], "final_rank": 1},
                {"start": [1, -1, -1, 1], "absorbed_at": 2, "final_state": [-1, -1, -1, -1], "final_rank": 1},
                {"start": [-1, -1, -1, 1], "absorbed_at": 9, "final_state": [-1, -1, -1, -1], "final_rank": 1},
                {"start": [-1, -1, -1, 1], "absorbed_at": 3, "final_state": [-1, -1, -1, -1], "final_rank": 1},
                {"start": [-1, -1, 1, 1], "absorbed_at": 9, "final_state": [1, 1, 1, 1], "final_rank": 1},
                {"start": [1, 1, -1, -1], "absorbed_at": 5, "final_state": [-1, -1, -1, -1], "final_rank": 1},
            ],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(ABSORB_GOLDEN))
def test_absorb_output_is_pinned(capsys, fixtures_dir, name):
    digest, expected = ABSORB_GOLDEN[name]
    net = str(fixtures_dir / name)
    code = main(["absorb", "--net", net, "--runs", "8", "--steps", "64", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == expected
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Exit code and stdout sha256 of `ideals` on each network fixture; the two
# frustrated triangles answer with the same non-potential error.
IDEALS_GOLDEN = {
    "gamma3_allg.json": (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    "gamma3_balanced.json": (0, "0f9e4dfd095aa68212fbf14af2b1aaba1271242c8dbd89e1658ca7fb2a1adc88"),
    "gamma3_ex1.json": (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    "k4_complete.json": (0, "bfd23663052ef33b864bdbf636045789746b2b58fafde0bbdebd874918ebc552"),
}


@pytest.mark.parametrize("name", sorted(IDEALS_GOLDEN))
def test_ideals_output_is_pinned(capsys, fixtures_dir, name):
    code = main(["ideals", "--net", str(fixtures_dir / name)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == IDEALS_GOLDEN[name]


# Exit code and stdout sha256 of `absorb` on each network fixture, keyed by
# (fixture, seed, runs, steps): full runs that settle well before their last
# step, and single steps.
ABSORB_HASHES = {
    ("gamma3_allg.json", 7, 32, 64): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_allg.json", 7, 4, 1): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_allg.json", 2027, 32, 64): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_allg.json", 2027, 4, 1): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_balanced.json", 7, 32, 64): (0, "f292a1078665e146262e1bc12d053a11fbb4fe259b9d9f62ed9aac091d5a3057"),
    ("gamma3_balanced.json", 7, 4, 1): (0, "2bb6813a3bb8bc7803ab75a5c873aa7cc4c504614c2728891206a7990daf86a8"),
    ("gamma3_balanced.json", 2027, 32, 64): (0, "e6a0bd633cd75fd3b7ce2bab90cf2a61091d5fe5bd20826685db8e836a762828"),
    ("gamma3_balanced.json", 2027, 4, 1): (0, "d0889d50f3f7cab7a884c1d3e6895093e8cbef23ef4468c7135f6c98c31a592e"),
    ("gamma3_ex1.json", 7, 32, 64): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_ex1.json", 7, 4, 1): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_ex1.json", 2027, 32, 64): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_ex1.json", 2027, 4, 1): (2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("k4_complete.json", 7, 32, 64): (0, "ba4b8d730bedff66157ad153013971d3f98f816eeb781296b0891839469c7204"),
    ("k4_complete.json", 7, 4, 1): (0, "9a60bd2099797bdd908ca832177a58ec9e6bcf27e8ce25210ef5d455e4932638"),
    ("k4_complete.json", 2027, 32, 64): (0, "e0a7e61250a092c44e8890bc72d0f6e728a5df392561a27e6e53a0fd45bf29d1"),
    ("k4_complete.json", 2027, 4, 1): (0, "62bffa5ccbdfe2c32075a5bcdbac6f987220993485e8576e46d7e7b64f24a166"),
}


@pytest.mark.parametrize("name, seed, runs, steps", sorted(ABSORB_HASHES))
def test_absorb_stdout_is_pinned(capsys, fixtures_dir, name, seed, runs, steps):
    argv = ["--runs", str(runs), "--steps", str(steps), "--seed", str(seed)]
    code = main(["absorb", "--net", str(fixtures_dir / name), *argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == ABSORB_HASHES[
        name, seed, runs, steps
    ]


# Inline networks for the pinned outputs below, spelled out in full so the
# pins do not depend on any writer of the program.
_SIGN = {
    "states": [1, -1],
    "elements": [{"name": "e", "perm": [0, 1]}, {"name": "g", "perm": [1, 0]}],
    "identity": "e",
}
_S3 = {
    "states": [0, 1, 2],
    "elements": [
        {"name": name, "perm": list(perm)}
        for name, perm in [
            ("e", (0, 1, 2)), ("s021", (0, 2, 1)), ("s102", (1, 0, 2)),
            ("s120", (1, 2, 0)), ("s201", (2, 0, 1)), ("s210", (2, 1, 0)),
        ]
    ],
    "identity": "e",
}
_S3_INVERSE = {"e": "e", "s021": "s021", "s102": "s102", "s120": "s201", "s201": "s120", "s210": "s210"}


def _inline(group, nodes, edges):
    """Inline network text; each (a, b, reaction) edge also gets its reverse
    with the inverse reaction."""
    inverse = _S3_INVERSE if group is _S3 else {"e": "e", "g": "g"}
    entries = []
    for a, b, r in edges:
        entries += [{"from": a, "to": b, "reaction": r}, {"from": b, "to": a, "reaction": inverse[r]}]
    return json.dumps({"group": group, "nodes": nodes, "edges": entries})


# A frustrated K6 (one hostile edge), a gauge K3,3 over S3 with
# g(i, j) = s_i^-1 * s_j, and a C13, whose 2**13 states exceed the bound.
_INLINE_NETS = {
    "k6-frustrated": _inline(
        _SIGN, list(range(1, 7)),
        [(a, b, "g" if (a, b) == (1, 2) else "e") for a in range(1, 7) for b in range(a + 1, 7)],
    ),
    "k33-s3-gauge": _inline(
        _S3, list(range(1, 7)),
        [(1, 4, "s120"), (1, 5, "s201"), (1, 6, "s210"), (2, 4, "s210"), (2, 5, "s102"),
         (2, 6, "s120"), (3, 4, "s021"), (3, 5, "s210"), (3, 6, "s201")],
    ),
    "c13": _inline(_SIGN, list(range(1, 14)), [(i, i % 13 + 1, "e") for i in range(1, 14)]),
}


# Exit code and stdout sha256 of `markov`, `markov --exact` and `analyze` on
# each network fixture and the inline networks, keyed by (network, command).
MARKOV_HASHES = {
    ('c13', 'analyze'): (2, "f38a351eae96e8d98567b853a13793d5e91d7627365635701437f75a7ffe159f"),
    ('gamma3_allg.json', 'analyze'): (0, "4a7b00f6ca5c0a0b538b4e6ee61011f18ef4b6109db1f93da03d7f628501ffa4"),
    ('gamma3_allg.json', 'markov'): (0, "a7d93b10bd0a68783785e4dfc97cf99792bde924966cf56ffd292bcbf6ecd848"),
    ('gamma3_allg.json', 'markov --exact'): (0, "164e94fac436ba89903fe2c21c8095e8442e0d332b3543304d24d0f93e613353"),
    ('gamma3_balanced.json', 'analyze'): (0, "be86562d849c55cebf2149f0e4a5012f424d79df4a6470db09a2a8c110ff286b"),
    ('gamma3_balanced.json', 'markov'): (0, "651f46b0d783b8a7a91485b6d9c49b022951f17cc8da1b759f4b9bc7c0ff12af"),
    ('gamma3_balanced.json', 'markov --exact'): (0, "6d1c413c5e227dba616dd264ed8f26d280dbf1c00a8870f5a187573205a21fae"),
    ('gamma3_ex1.json', 'analyze'): (0, "79c2334bda7634d8f6ae4565889469cacd89d32430d84ba4dd8611da09cf5eac"),
    ('gamma3_ex1.json', 'markov'): (0, "f4327537bb211cd9208f8a5b575d53db324cd921dad2da6da714c7758dc2d05d"),
    ('gamma3_ex1.json', 'markov --exact'): (0, "5d3d0dee679dcc452fbbceb2d3b3242e500da068d9c4bbd30f65bf863d809614"),
    ('k33-s3-gauge', 'analyze'): (0, "8a3a7f92186c2f0e6978751514d13d3f15979782665c9182b1c3dc1acc880782"),
    ('k33-s3-gauge', 'markov'): (0, "987370832da74586a357a4f250098919a651ff7ece6c3a208a290b8574b4cf26"),
    ('k33-s3-gauge', 'markov --exact'): (0, "a582b60b4594e5bf5b38034154f08a9428b0a33f823cf89a911d0ba6ed6c87a1"),
    ('k4_complete.json', 'analyze'): (0, "0c5678f6a661b52d5e6387f9e84d8cdc49237d437029cd88995be6acb876725d"),
    ('k4_complete.json', 'markov'): (0, "48986c0700b3729f39e4e637e053e3d8de241c38b4c2abb516a9e3b54900e05d"),
    ('k4_complete.json', 'markov --exact'): (0, "2048d2d0080bd56a4cfc9dcb5d7d79db6e9cf114b155cc92a11076056ee834e8"),
    ('k6-frustrated', 'analyze'): (0, "675cf13d80e3902410b201508e60a7f025ada2578725ed33c0a9c3691ad24f4c"),
    ('k6-frustrated', 'markov'): (0, "e663f2cba4012df42bbb84ae3cde12b6829f0758d9e8d1882598bf0338d94528"),
    ('k6-frustrated', 'markov --exact'): (0, "051d8bd4b671b3a5a057672beaaa271dac0d55ba5659f7d33b3697406943fd60"),
}


@pytest.mark.parametrize("net, command", sorted(MARKOV_HASHES))
def test_markov_stdout_is_pinned(capsys, fixtures_dir, net, command):
    source = _INLINE_NETS[net] if net in _INLINE_NETS else str(fixtures_dir / net)
    name, *flags = command.split()
    code = main([name, "--net", source, *flags])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MARKOV_HASHES[net, command]


def test_analyze_reads_inline_json_as_it_reads_the_file(capsys, fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "k4_complete.json").read_text())
    doc["group"] = json.loads((fixtures_dir / "sign_group.json").read_text())
    text = json.dumps(doc, indent=2)
    path = tmp_path / "k4_inline_group.json"
    path.write_text(text, encoding="utf-8")
    outs = []
    for net in (str(path), text):
        assert main(["analyze", "--net", net, "--seed", "7"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[1])["digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_smooth_check_residual(capsys):
    code, payload = run_cli(
        capsys, "smooth", "check-residual", "--field", "elliptic-wave", "--grid", "3"
    )
    assert code == 0
    assert payload["passes"] is True
    assert payload["max_residual"] < 1e-4

    code, payload = run_cli(
        capsys, "smooth", "check-residual", "--field", "nonpotential", "--grid", "3"
    )
    assert code == 0
    assert payload["passes"] is False
    assert payload["max_residual"] > 1e-3


def test_smooth_p_integral(capsys, tmp_path):
    curve = '{"type":"line","from":[0.1,0.2],"to":[0.8,0.7]}'
    code, payload = run_cli(
        capsys, "smooth", "p-integral", "--curve", curve, "--n", "64"
    )
    assert code == 0
    assert payload["det"] == pytest.approx(1.0, abs=1e-9)
    assert payload["refinement_difference"] < 1e-6

    code, payload = run_cli(
        capsys,
        "smooth",
        "p-integral",
        "--curve",
        curve,
        "--n",
        "63",
        "--parity",
        "odd",
    )
    assert payload["det"] == pytest.approx(-1.0, abs=1e-9)

    curve_file = tmp_path / "curve.json"
    curve_file.write_text(
        '{"type":"polyline","points":[[0.1,0.2],[0.5,0.5],[0.8,0.7]]}'
    )
    code, payload = run_cli(
        capsys, "smooth", "p-integral", "--curve", str(curve_file), "--n", "64"
    )
    assert code == 0
    assert payload["det"] == pytest.approx(1.0, abs=1e-9)


def test_smooth_discretize(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys,
        "smooth",
        "discretize",
        "--net",
        str(fixtures_dir / "k4_complete.json"),
        "--embedding",
        str(fixtures_dir / "k4_embedding.json"),
        "--field",
        "elliptic-wave",
    )
    assert code == 0
    assert payload["potential"] is True
    assert payload["max_defect"] < 1e-6
    assert set(payload["signs"].values()) == {1}
    assert len(payload["marks"]) == 12


def test_analyze_single_network(capsys, fixtures_dir):
    net = fixtures_dir / "gamma3_balanced.json"
    code, payload = run_cli(capsys, "analyze", "--net", str(net), "--seed", "9")
    assert code == 0
    assert payload["digest"] == hashlib.sha256(net.read_bytes()).hexdigest()
    assert payload["seed"] == 9
    assert payload["potential"] is True
    assert payload["stationary_count"] == 2
    assert payload["limit_exists"] is True
    assert payload["ideal_count"] == 3
    assert payload["final_state_count"] == 2
    assert payload["cross_check"] == "pass"
    assert payload["timing_seconds"] is None
    assert "skipped" not in payload


def test_analyze_non_potential_network(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "analyze", "--net", str(fixtures_dir / "gamma3_allg.json")
    )
    assert code == 0
    assert payload["potential"] is False
    assert payload["witness_cycle"] is not None
    assert payload["stationary_count"] == 1
    assert payload["limit_exists"] is False
    assert payload["ideal_count"] is None
    assert payload["cross_check"] is None


def test_analyze_many_networks_keeps_input_order(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys,
        "analyze",
        "--net",
        str(fixtures_dir / "gamma3_balanced.json"),
        "--net",
        str(fixtures_dir / "gamma3_ex1.json"),
        "--net",
        str(fixtures_dir / "gamma3_allg.json"),
    )
    assert code == 0
    reports = payload["reports"]
    assert [r["stationary_count"] for r in reports] == [2, 1, 1]
    assert [r["potential"] for r in reports] == [True, False, False]


def test_the_parser_is_built_once_and_keeps_no_state(capsys, fixtures_dir):
    assert _build_parser() is _build_parser()
    net = str(fixtures_dir / "gamma3_balanced.json")
    for _ in range(2):
        # A second parse must not append to the first one's --net list.
        code, payload = run_cli(capsys, "analyze", "--net", net, "--seed", "9")
        assert code == 0 and "reports" not in payload
        assert payload["seed"] == 9
    code, payload = run_cli(capsys, "analyze", "--net", net)
    assert payload["seed"] == 0  # the config default, not the last --seed
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["absorb", "--net", net, "--runs", "many"])
        assert info.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
    code, payload = run_cli(capsys, "absorb", "--net", net, "--runs", "2", "--seed", "1")
    assert code == 0 and len(payload["trajectories"]) == 2


def test_analyze_output_is_deterministic(fixtures_dir, tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            [
                "analyze",
                "--net",
                str(fixtures_dir / "gamma3_balanced.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert capsys.readouterr().out == ""
    assert outs[0] == outs[1]


def test_analyze_timing_flag(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys,
        "analyze",
        "--net",
        str(fixtures_dir / "gamma3_balanced.json"),
        "--timing",
    )
    assert code == 0
    assert payload["timing_seconds"] >= 0.0


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("net", ["gamma3_balanced.json", "gamma3_allg.json", "k4_complete.json"])
def test_analyze_prints_what_run_full_analysis_returns(capsys, fixtures_dir, net):
    path = fixtures_dir / net
    out = _stdout(capsys, "analyze", "--net", str(path))
    assert out == json_text(run_full_analysis(path)) + "\n"


def test_analyze_timing_replaces_only_the_timing_line(capsys, fixtures_dir):
    net = str(fixtures_dir / "gamma3_allg.json")
    plain = _stdout(capsys, "analyze", "--net", net).splitlines()
    timed = _stdout(capsys, "analyze", "--net", net, "--timing").splitlines()
    assert len(timed) == len(plain)
    changed = [i for i, (a, b) in enumerate(zip(plain, timed)) if a != b]
    assert changed == [plain.index('  "timing_seconds": null')]
    key, value = timed[changed[0]].split(": ")
    assert key == '  "timing_seconds"' and float(value) >= 0.0


def test_analyze_many_networks_prints_the_single_documents(capsys, fixtures_dir):
    nets = [str(fixtures_dir / n) for n in ("k4_complete.json", "gamma3_allg.json")]
    singles = [json.loads(_stdout(capsys, "analyze", "--net", n)) for n in nets]
    both = _stdout(capsys, "analyze", "--net", nets[0], "--net", nets[1])
    assert both == json_text({"reports": singles}) + "\n"


def test_missing_file_reports_io_error(capsys):
    code, payload = run_cli(capsys, "analyze", "--net", "no-such-file.json")
    assert code == 2
    assert payload["error"]["type"] == "io"


def test_malformed_network_reports_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "nodes": [1, 2],
                "group": {
                    "states": [1, -1],
                    "elements": [
                        {"name": "e", "perm": [0, 1]},
                        {"name": "g", "perm": [1, 0]},
                    ],
                    "identity": "e",
                },
                "edges": [{"from": 1, "to": 2, "reaction": "g"}],
            }
        )
    )
    code, payload = run_cli(capsys, "check-potential", "--net", str(bad))
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "reverse" in payload["error"]["message"]


def _cycle_network(tmp_path, n):
    """A potential n-cycle over the sign group."""
    nodes = list(range(1, n + 1))
    cycle = {
        "group": {
            "states": [1, -1],
            "elements": [{"name": "e", "perm": [0, 1]}, {"name": "g", "perm": [1, 0]}],
            "identity": "e",
        },
        "nodes": nodes,
        "symmetric": True,
        "edges": [
            {"from": a, "to": nodes[(i + 1) % n], "reaction": "e"}
            for i, a in enumerate(nodes)
        ],
    }
    net = tmp_path / f"c{n}.json"
    net.write_text(json.dumps(cycle))
    return net


def test_absorb_needs_no_semigroup_enumeration(capsys, tmp_path):
    net = _cycle_network(tmp_path, 8)
    code, payload = run_cli(
        capsys, "absorb", "--net", str(net), "--runs", "4", "--steps", "64"
    )
    assert code == 0
    assert payload["min_rank"] == 2
    assert all(t["final_rank"] >= 2 for t in payload["trajectories"])


def test_state_bound_writes_a_huge_state_count_as_a_power(capsys, tmp_path):
    """2**15000 has more digits than Python writes out from an int."""
    net = str(_cycle_network(tmp_path, 15000))
    for command in ("markov", "analyze"):
        code, payload = run_cli(capsys, command, "--net", net)
        assert code == 2
        assert payload["error"] == {
            "type": "bound-exceeded",
            "message": "state space has 2**15000 elements, which exceeds the bound 4096",
        }


def test_analyze_on_c8_meets_the_closed_forms(capsys, tmp_path):
    code, payload = run_cli(capsys, "analyze", "--net", str(_cycle_network(tmp_path, 8)))
    assert code == 0
    assert payload["potential"] is True
    # Voter-model closed form on a bipartite graph: k(k+1)/2 periodic classes.
    assert payload["stationary_count"] == 3
    assert payload["limit_exists"] is False
    assert payload["characteristic_ok"] is True
    # Theorem 1 on the 4 + 4 bipartition: |A||B| ideals of two operators each,
    # and k**2 final states, one value per side.
    assert payload["ideal_count"] == 16
    assert payload["kernel_size"] == 32
    assert payload["final_state_count"] == 4
    assert payload["cross_check"] == "pass"
    assert "skipped" not in payload


def _probe(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(balancenets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )


# numpy always has a key in sys.modules: the stub that lazy_module leaves
# there.  It has run only when one of its submodules is loaded too.  Any
# attribute read on the stub would run it, so the probes read keys alone.
_LOADED = "sorted(k for k in sys.modules if k == {0!r} or k.startswith({0!r} + '.'))"


@pytest.mark.parametrize(
    "module", ["networkx", "scipy", "scipy.integrate", "scipy.optimize", "numpy"]
)
def test_importing_the_cli_leaves_module_out(module):
    result = _probe(f"import sys, balancenets.cli; print({_LOADED.format(module)})")
    assert result.stdout.strip() == str(["numpy"] if module == "numpy" else [])


@pytest.mark.parametrize(
    "argv,runs_numpy",
    [
        (["check-potential", "--net", "k4_complete.json"], False),
        (["balance", "--net", "k4_complete.json"], False),
        (["ideals", "--net", "k4_complete.json"], False),
        (["absorb", "--runs", "4", "--steps", "16", "--net", "k4_complete.json"], False),
        (["gen-fields", "--nodes", "4"], False),
        (["markov", "--net", "k4_complete.json"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_discrete_commands_leave_numpy_unexecuted(fixtures_dir, argv, runs_numpy):
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    result = _probe(
        "import sys\n"
        "from balancenets.cli import main\n"
        f"code = main({argv!r})\n"
        "print(any(k.startswith('numpy.') for k in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert json.loads(result.stdout)
    assert result.stderr.strip() == str(runs_numpy)


def test_numpy_run_by_a_command_is_the_one_numpy(fixtures_dir):
    net = str(fixtures_dir / "k4_complete.json")
    result = _probe(
        "import sys\n"
        "import balancenets.dynamics as dynamics\n"
        "from balancenets.cli import main\n"
        f"main(['markov', '--net', {net!r}])\n"
        "import numpy, scipy.sparse\n"
        "assert dynamics.np is sys.modules['numpy'] is numpy\n"
        "print(scipy.sparse.csr_array(numpy.eye(2)).nnz, file=sys.stderr)\n"
    )
    assert result.stderr.strip() == "2"


# The package's modules that have run.  A module that lazy_module left as a
# stub has another type until it runs, and type() reads no attribute.
_RAN = (
    "sorted(k.split('.', 1)[1] for k, m in sys.modules.items()"
    " if k.startswith('balancenets.') and type(m) is types.ModuleType)"
)
_PARSE = ["cli", "config", "errors", "groups", "network", "potential"]
_SMOOTH = ["involution", "smoothfield"]


def test_importing_the_package_runs_no_module():
    result = _probe(
        "import sys, types, balancenets\n"
        "names = set(dir(balancenets))\n"
        f"print({_RAN}, set(balancenets.__all__) <= names)\n"
    )
    assert result.stdout.strip() == "[] True"


def test_importing_the_cli_leaves_every_traced_layer_a_stub_in_sys_modules():
    result = _probe(
        "import sys, types, balancenets.cli\n"
        f"print({_RAN})\n"
        "print(sorted(k.split('.', 1)[1] for k in sys.modules if k.startswith('balancenets.')))\n"
    )
    ran, keys = result.stdout.splitlines()
    assert ran == str(_PARSE)
    assert keys == str(sorted(_PARSE + ["dynamics", "report", "semigroup"] + _SMOOTH))


@pytest.mark.parametrize(
    "argv,extra",
    [
        pytest.param(["check-potential", "--net", "k4_complete.json"], ["dynamics"],
                     id="check-potential"),
        pytest.param(["balance", "--net", "k4_complete.json"], [], id="balance"),
        pytest.param(["gen-fields", "--nodes", "4"], [], id="gen-fields"),
        pytest.param(["ideals", "--net", "k4_complete.json"], ["semigroup"], id="ideals"),
        pytest.param(["absorb", "--runs", "4", "--steps", "16", "--net", "k4_complete.json"],
                     ["semigroup"], id="absorb"),
        pytest.param(["markov", "--net", "k4_complete.json"], ["dynamics", "semigroup"],
                     id="markov"),
        pytest.param(["analyze", "--net", "k4_complete.json"],
                     ["dynamics", "report", "semigroup"], id="analyze"),
        pytest.param(["smooth", "check-residual", "--grid", "3"], _SMOOTH,
                     id="smooth-check-residual"),
        pytest.param(["smooth", "p-integral", "--n", "64", "--curve",
                      '{"type": "line", "from": [0.2, 0.3], "to": [0.7, 0.6]}'], _SMOOTH,
                     id="smooth-p-integral"),
        pytest.param(["smooth", "discretize", "--net", "k4_complete.json",
                      "--embedding", "k4_embedding.json"], _SMOOTH, id="smooth-discretize"),
    ],
)
def test_a_command_runs_only_the_modules_it_uses(fixtures_dir, argv, extra):
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    result = _probe(
        "import sys, types\n"
        "from balancenets.cli import main\n"
        f"code = main({argv!r})\n"
        f"print({_RAN}, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert json.loads(result.stdout)
    assert result.stderr.strip() == str(sorted(_PARSE + extra))


def test_public_names_resolve_to_what_their_home_module_defines():
    import importlib
    import types

    from balancenets import config, involution

    for name in balancenets.__all__:
        value = getattr(balancenets, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"balancenets.{name}")
        elif name in ("E2", "Z_SWAP"):
            assert value.tolist() == getattr(involution, name).tolist()
        elif hasattr(value, "__module__"):
            assert value.__module__.startswith("balancenets.")
            assert getattr(sys.modules[value.__module__], name) is value
        else:
            assert getattr(config, name) is value
    namespace: dict = {}
    exec("from balancenets import *", namespace)
    assert set(balancenets.__all__) <= set(namespace)
    assert set(balancenets.__all__) <= set(dir(balancenets))
    with pytest.raises(AttributeError) as info:
        balancenets.no_such_name
    assert str(info.value) == "module 'balancenets' has no attribute 'no_such_name'"


def test_lazy_module_returns_a_module_already_imported():
    import numpy

    assert lazy_module("numpy") is numpy is sys.modules["numpy"]


def test_lazy_module_runs_the_module_on_first_attribute_read(tmp_path, monkeypatch):
    name = "balancenets_lazy_probe"
    (tmp_path / f"{name}.py").write_text(
        "from pathlib import Path\n"
        "Path(__file__).with_suffix('.ran').touch()\n"
        "VALUE = 7\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = lazy_module(name)
        assert sys.modules[name] is module
        assert not (tmp_path / f"{name}.ran").exists()
        assert module.VALUE == 7
        assert (tmp_path / f"{name}.ran").exists()
        assert lazy_module(name) is module
    finally:
        sys.modules.pop(name, None)


def test_lazy_module_raises_like_import_for_a_missing_module():
    with pytest.raises(ModuleNotFoundError) as info:
        lazy_module("balancenets_no_such_module")
    assert info.value.name == "balancenets_no_such_module"
    assert "balancenets_no_such_module" not in sys.modules


def test_public_names_are_unchanged():
    assert balancenets.__all__ == """
    BOUND_GRP BOUND_STATES BalanceNetsError BalancePartition
    BoundExceededError CharacteristicReactions ChoiceDistribution ConicSectionFamily
    ControlMatrix ConvergenceReport CoreSet DegeneratePlaneError E2
    EdgeQuadratureRule FieldDomainError GraphEmbedding GroupElement
    GroupMismatchError IdealEnumeration InvolutionField InvolutionMatrix LeftIdeal
    Marking MarkovModel MatrixMarking NonPotentialError OperatorMatrix
    ParameterizedCurve ParityError Path PlaneCoefficients PotentialFunction
    PotentialVerdict ProductTrajectory REFERENCE_STEPS ReactionGroup ReactionMatrix
    RelationGraph ResidualReport RunConfig ScanResult SingularSeedError StarMarking
    StarPath StarPotentialReport StateSet TAU_ALG TAU_FLD TAU_NUM TheoremBReport
    TwoStepGraph ValidationError Z_SWAP analyze_marking balance_partition
    balance_signs balance_witness bipartition build_markov check_A1 check_A2
    complete_extension config control_matrices convergence_report core_set
    cyclic_group discretize dynamics enumerate_ideals errors essential_check
    final_states gamma3_solution_family generate_potential_fields group_to_json
    groups infinitesimal_residual involution involution_from_seed involution_log
    is_potential limit_exists load_embedding load_group load_network
    max_nonergodicity_scan network network_to_json orbit_count p_integral
    pair_orbit_count partition_from_signs plane_rhs plane_section_solution potential
    product_integral product_integral_star project_point_to_section project_to_plane
    random_product_process read_json report residual_orders rho run_full_analysis
    seed_from_involution semigroup sign_by_identity sign_group smoothfield
    solve_characteristic solve_characteristic_pair solve_ode_field
    spectral_projectors star_marking star_product stationary_count symmetric_group
    theorem1_expected theorem1_min_rank theoremB_verify trajectory_seed two_coloring
    two_step valid_parity_assignment word_index_map
    """.split()
    assert all(hasattr(balancenets, name) for name in balancenets.__all__)


def test_package_constants_are_the_identity_and_the_swap():
    import numpy as np

    from balancenets import E2, Z_SWAP

    for value, expected in ((E2, [[1.0, 0.0], [0.0, 1.0]]), (Z_SWAP, [[0.0, 1.0], [1.0, 0.0]])):
        assert type(value) is np.ndarray and value.dtype == np.float64
        assert value.tolist() == expected
    with pytest.raises(AttributeError):
        balancenets.no_such_name


def test_curve_that_is_not_an_object_reports_validation(capsys, tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text("[[0.1, 0.2], [0.8, 0.7]]")
    code, payload = run_cli(capsys, "smooth", "p-integral", "--curve", str(curve))
    assert code == 2
    assert payload["error"]["type"] == "validation"


def test_malformed_inline_embedding_reports_validation(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys,
        "smooth",
        "discretize",
        "--net",
        str(fixtures_dir / "k4_complete.json"),
        "--embedding",
        "{bad",
    )
    assert code == 2
    assert payload["error"]["type"] == "validation"


def test_config_file_controls_output_path(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 3, "out_path": str(out)}))
    code = main(
        [
            "analyze",
            "--net",
            str(fixtures_dir / "gamma3_balanced.json"),
            "--config",
            str(cfg),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3


def test_bad_config_reports_validation(fixtures_dir, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tau_num": -1.0}))
    code, payload = run_cli(
        capsys,
        "analyze",
        "--net",
        str(fixtures_dir / "gamma3_balanced.json"),
        "--config",
        str(cfg),
    )
    assert code == 2
    assert payload["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "curve,message",
    [
        ('{"type":"line","from":[0.1],"to":[0.5,0.5]}', "line start must be"),
        ('{"type":"polyline","points":[[0.1,0.1],[0.3]]}', "polyline point must be"),
        ('{"type":"polyline","points":5}', "polyline points must be a list"),
    ],
    ids=["line-start", "polyline-point", "polyline-points"],
)
def test_malformed_curve_points_report_validation(capsys, curve, message):
    code, payload = run_cli(capsys, "smooth", "p-integral", "--curve", curve)
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert message in payload["error"]["message"]


@pytest.mark.parametrize(
    "curve,kind,key",
    [
        ({"type": "line", "to": [0.5, 0.5]}, "line", "from"),
        ({"type": "line", "from": [0.1, 0.1]}, "line", "to"),
        ({"type": "polyline"}, "polyline", "points"),
    ],
    ids=["line-from", "line-to", "polyline-points"],
)
def test_curve_spec_names_its_missing_key(capsys, curve, kind, key):
    code, payload = run_cli(capsys, "smooth", "p-integral", "--curve", json.dumps(curve))
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": f"curve spec of type '{kind}' is missing '{key}'",
    }


def _triangle_net(labels, sign_group):
    a, b, c = labels
    return {
        "group": sign_group,
        "nodes": list(labels),
        "symmetric": True,
        "edges": [
            {"from": x, "to": y, "reaction": "e"} for x, y in ((a, b), (a, c), (b, c))
        ],
    }


def test_embedding_keys_json_literal_labels_by_their_json_spelling(capsys, fixtures_dir):
    group = json.loads((fixtures_dir / "sign_group.json").read_text())
    net = json.dumps(_triangle_net([True, False, None], group))
    embedding = {
        "nodes": {"true": [0.1, 0.1], "false": [0.9, 0.1], "null": [0.5, 0.9]},
        "edges": [{"from": True, "to": False, "steps": 64}, {"from": "null", "to": "true"}],
    }
    argv = ["smooth", "discretize", "--net", net, "--embedding"]
    code, payload = run_cli(capsys, *argv, json.dumps(embedding))
    assert code == 0
    assert payload["potential"] is True
    # The output keeps its Python spelling of the labels.
    assert sorted(payload["marks"]) == sorted(
        f"{x}->{y}" for x in (True, False, None) for y in (True, False, None) if x is not y
    )
    # The Python spellings no longer name a node.
    embedding["nodes"] = {"True": [0.1, 0.1], "False": [0.9, 0.1], "None": [0.5, 0.9]}
    code, payload = run_cli(capsys, *argv, json.dumps(embedding))
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "embedding names unknown node 'True'",
    }


def test_embedding_polyline_that_is_not_a_list_reports_validation(capsys, fixtures_dir):
    embedding = json.loads((fixtures_dir / "k4_embedding.json").read_text())
    embedding["edges"][0]["polyline"] = 5
    code, payload = run_cli(
        capsys, "smooth", "discretize", "--net", str(fixtures_dir / "k4_complete.json"),
        "--embedding", json.dumps(embedding),
    )
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "polyline points must be a list of [x, y] pairs, got 5",
    }


def test_embedding_rejects_labels_that_share_a_key(capsys, fixtures_dir):
    group = json.loads((fixtures_dir / "sign_group.json").read_text())
    net = json.dumps(_triangle_net([1, "1", 2], group))
    embedding = {"nodes": {"1": [0.1, 0.1], "2": [0.9, 0.1]}}
    code, payload = run_cli(
        capsys, "smooth", "discretize", "--net", net, "--embedding", json.dumps(embedding)
    )
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "node labels 1 and '1' share the embedding key '1'",
    }


def test_check_potential_keys_labels_by_their_json_spelling(capsys, fixtures_dir):
    group = json.loads((fixtures_dir / "sign_group.json").read_text())
    net = json.dumps(_triangle_net([True, 2.5, None], group))
    code, payload = run_cli(capsys, "check-potential", "--net", net)
    assert code == 0
    assert payload["characteristic"] == {"true": "e", "2.5": "e", "null": "e"}


def test_check_potential_rejects_labels_that_share_a_key(capsys, fixtures_dir):
    group = json.loads((fixtures_dir / "sign_group.json").read_text())
    net = json.dumps(_triangle_net([1, "1", 2], group))
    code, payload = run_cli(capsys, "check-potential", "--net", net)
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "node labels 1 and '1' share the characteristic key '1'",
    }


@pytest.mark.parametrize(
    "node,edge,message",
    [
        ([0.1], {}, "embedding node '1' must be"),
        ([0.05, 0.05], {"polyline": []}, "polyline needs at least two points"),
    ],
    ids=["node", "empty-polyline"],
)
def test_malformed_embedding_points_report_validation(
    capsys, fixtures_dir, node, edge, message
):
    embedding = json.loads((fixtures_dir / "k4_embedding.json").read_text())
    embedding["nodes"]["1"] = node
    embedding["edges"][0].update(edge)
    code, payload = run_cli(
        capsys,
        "smooth",
        "discretize",
        "--net",
        str(fixtures_dir / "k4_complete.json"),
        "--embedding",
        json.dumps(embedding),
    )
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert message in payload["error"]["message"]


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_absorb_rejects_runs_below_one(capsys, fixtures_dir, runs):
    code, payload = run_cli(
        capsys, "absorb", "--net", str(fixtures_dir / "gamma3_balanced.json"), "--runs", runs
    )
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "--runs" in payload["error"]["message"]


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_absorb_rejects_steps_below_one(capsys, fixtures_dir, steps):
    code, payload = run_cli(
        capsys, "absorb", "--net", str(fixtures_dir / "gamma3_balanced.json"), "--steps", steps
    )
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert payload["error"]["message"] == f"--steps must be at least 1, got {steps}"


def test_absorb_runs_at_the_product_step_bound(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "absorb", "--net", str(fixtures_dir / "gamma3_balanced.json"),
        "--runs", "1", "--steps", str(BOUND_PRODUCT_STEPS),
    )
    assert code == 0
    assert payload["steps"] == BOUND_PRODUCT_STEPS
    assert payload["absorbed"] == 1


@pytest.mark.parametrize(
    "runs, steps", [(1, BOUND_PRODUCT_STEPS + 1), (BOUND_PRODUCT_STEPS + 1, 1)]
)
def test_absorb_refuses_past_the_product_step_bound_before_any_draw(
    capsys, monkeypatch, fixtures_dir, runs, steps
):
    def no_draws(*args, **kwargs):
        raise AssertionError("absorb drew past its bound")

    monkeypatch.setattr(semigroup, "random_product_process", no_draws)
    code, payload = run_cli(
        capsys, "absorb", "--net", str(fixtures_dir / "gamma3_balanced.json"),
        "--runs", str(runs), "--steps", str(steps),
    )
    assert code == 2
    assert payload["error"] == {
        "type": "bound-exceeded",
        "message": f"absorb: --runs {runs} times --steps {steps} makes "
        f"{BOUND_PRODUCT_STEPS + 1} product steps, which exceeds the bound {BOUND_PRODUCT_STEPS}",
    }


@pytest.mark.parametrize("steps", [1024.9, "1025", True], ids=["fraction", "string", "bool"])
def test_embedding_steps_must_be_an_integer(capsys, fixtures_dir, steps):
    embedding = json.loads((fixtures_dir / "k4_embedding.json").read_text())
    embedding["edges"][0]["steps"] = steps
    code, payload = run_cli(
        capsys,
        "smooth",
        "discretize",
        "--net",
        str(fixtures_dir / "k4_complete.json"),
        "--embedding",
        json.dumps(embedding),
    )
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert payload["error"]["message"] == (
        f"embedding edge ('1', '2') steps must be an integer, got {steps!r}"
    )


def test_check_residual_rejects_grid_below_one(capsys):
    code, payload = run_cli(capsys, "smooth", "check-residual", "--grid", "0")
    assert code == 2
    assert payload["error"]["type"] == "validation"
    assert "--grid" in payload["error"]["message"]


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("nodes", [[0.1, 0.1]], "embedding 'nodes' must be an object of node coordinates"),
        ("edges", {"a": 1}, "embedding 'edges' must be a list of objects"),
        ("edges", [["1", "2"]], "embedding 'edges' must be a list of objects"),
    ],
    ids=["nodes-list", "edges-object", "edges-of-lists"],
)
def test_embedding_shapes_report_validation(capsys, fixtures_dir, key, value, message):
    embedding = json.loads((fixtures_dir / "k4_embedding.json").read_text())
    embedding[key] = value
    code, payload = run_cli(
        capsys,
        "smooth",
        "discretize",
        "--net",
        str(fixtures_dir / "k4_complete.json"),
        "--embedding",
        json.dumps(embedding),
    )
    assert code == 2
    assert payload["error"] == {"type": "validation", "message": message}


@pytest.mark.parametrize("bound", [15.5, "4096", True], ids=["fraction", "string", "bool"])
def test_config_bound_states_must_be_an_integer(capsys, fixtures_dir, bound):
    code, payload = run_cli(
        capsys,
        "markov",
        "--net",
        str(fixtures_dir / "gamma3_balanced.json"),
        "--config",
        json.dumps({"bound_states": bound}),
    )
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "bound_states must be an integer",
    }


def _with_list_label(doc, where):
    """The network doc with one label turned into a JSON list."""
    if where == "nodes":
        doc["nodes"][0] = [doc["nodes"][0]]
    elif where == "states":
        doc["group"]["states"][0] = [doc["group"]["states"][0]]
    else:
        doc["edges"][0][where] = [doc["edges"][0][where]]
    return doc


@pytest.mark.parametrize(
    "where,message",
    [
        ("nodes", "'nodes' labels must be JSON scalars, got [1]"),
        ("from", "edge #0 'from' must be a JSON scalar, got [1]"),
        ("to", "edge #0 'to' must be a JSON scalar, got [2]"),
        ("states", "group 'states' must be JSON scalars, got [1]"),
    ],
)
def test_unhashable_labels_report_validation(capsys, fixtures_dir, where, message):
    doc = json.loads((fixtures_dir / "gamma3_balanced.json").read_text())
    doc["group"] = json.loads((fixtures_dir / doc["group"]).read_text())
    assert doc["nodes"][0] == 1 and doc["edges"][0]["from"] == 1
    assert doc["edges"][0]["to"] == 2 and doc["group"]["states"][0] == 1
    net = json.dumps(_with_list_label(doc, where))
    code, payload = run_cli(capsys, "markov", "--net", net)
    assert code == 2
    assert payload["error"] == {"type": "validation", "message": message}


@pytest.mark.parametrize("h", ["0", "-0.001", "nan", "inf"])
def test_check_residual_rejects_a_bad_step(capsys, h):
    code, payload = run_cli(capsys, "smooth", "check-residual", "--h", h)
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": f"--h must be a positive finite number, got {float(h)!r}",
    }


SIGN_GROUP = {
    "states": [1, -1],
    "elements": [{"name": "e", "perm": [0, 1]}, {"name": "g", "perm": [1, 0]}],
    "identity": "e",
}


def _inline_network(nodes, pairs, group=SIGN_GROUP):
    """A symmetric network document over the group, as an inline string."""
    return json.dumps(
        {
            "group": group,
            "nodes": nodes,
            "symmetric": True,
            "edges": [{"from": a, "to": b, "reaction": r} for a, b, r in pairs],
        }
    )


@pytest.mark.parametrize("perm", [[False, True], [0.0, 1]], ids=["bool", "float"])
@pytest.mark.parametrize("command", ["check-potential", "ideals", "markov", "analyze"])
def test_group_perm_entries_must_be_integers(capsys, tmp_path, perm, command):
    group = {**SIGN_GROUP, "elements": [{"name": "e", "perm": perm}, SIGN_GROUP["elements"][1]]}
    net = tmp_path / "net.json"
    net.write_text(_inline_network([1, 2, 3], [(1, 2, "g"), (1, 3, "g"), (2, 3, "e")], group))
    code, payload = run_cli(capsys, command, "--net", str(net))
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "element 'e': perm must be a bijection on 2 state indices",
    }


@pytest.mark.parametrize(
    "key,value",
    [("states", "ab"), ("states", {"a": 1}), ("elements", "eg"), ("elements", None)],
)
def test_group_states_and_elements_must_be_lists(capsys, key, value):
    net = _inline_network([1, 2], [(1, 2, "g")], {**SIGN_GROUP, key: value})
    code, payload = run_cli(capsys, "check-potential", "--net", net)
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": f"group {key!r} must be a list, got {value!r}",
    }


@pytest.mark.parametrize("reaction", [True, 0])
def test_reaction_that_is_not_a_name_reports_validation(capsys, reaction):
    net = _inline_network([1, 2, 3], [(1, 2, "e"), (1, 3, "e"), (2, 3, reaction)])
    code, payload = run_cli(capsys, "check-potential", "--net", net)
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": f"edge #2 'reaction' must be an element name, got {reaction!r}",
    }


def test_labels_that_differ_only_by_type_stay_apart(capsys):
    # A path 1 - 3 - true: `true` and `1` name two different nodes.
    net = _inline_network([1, True, 3], [(1, 3, "g"), (3, True, "e")])
    code, payload = run_cli(capsys, "balance", "--net", net)
    assert code == 0
    assert payload["nodes"] == 3
    assert payload["partition"] == [[1], [True, 3]]
    assert payload["partition"][1][0] is True
    code, payload = run_cli(capsys, "check-potential", "--net", net)
    assert code == 0
    assert payload["potential"] is True


@pytest.mark.parametrize(
    "command", ["check-potential", "balance", "markov", "ideals", "absorb", "analyze"]
)
def test_labels_of_mixed_json_types_sort(capsys, command):
    # Node labels and state labels each mix null, numbers and strings, which
    # sort null first, then numbers, then strings.
    group = {**SIGN_GROUP, "states": [0, "x"]}
    pairs = [(1, "b", "e"), ("b", 3, "g"), (3, None, "e"), (None, 1, "g")]
    net = _inline_network([1, "b", 3, None], pairs, group)
    code, payload = run_cli(capsys, command, "--net", net)
    assert code == 0
    states = [[0, 0, "x", "x"], [0, "x", "x", 0], ["x", 0, 0, "x"], ["x", "x", 0, 0]]
    if command == "balance":
        assert payload["partition"] == [[1, "b"], [None, 3]]
    elif command == "markov":
        assert payload["W0"] == states
    elif command == "ideals":
        assert payload["final_states"] == states
    elif command == "analyze":
        assert payload["core_states"] == states
    elif command == "absorb":
        seen = payload["final_states_seen"]
        assert seen == [x for x in states if x in seen]


def test_disconnected_network_reports_validation(capsys):
    net = _inline_network([1, 2, 3, 4], [(1, 2, "g"), (3, 4, "e")])
    code, payload = run_cli(capsys, "balance", "--net", net)
    assert code == 2
    assert payload["error"] == {"type": "validation", "message": "graph is not connected"}


# -- check-potential reads A1 and A2 off the core set -------------------------


@pytest.mark.parametrize("net", ["k4_complete.json", "gamma3_allg.json", "gamma3_ex1.json"])
def test_check_potential_makes_one_core_set_and_no_star_marking(
    capsys, derivation_calls, fixtures_dir, net
):
    assert main(["check-potential", "--net", str(fixtures_dir / net)]) == 0
    capsys.readouterr()
    # core_set decides A2 once and reads A1 off its own walks.
    assert derivation_calls == {
        "star_marking": 0, "check_A1": 0, "check_A2": 1, "core_set": 1,
    }


def _star_criteria_oracle(marking) -> dict:
    """check-potential's document from the star-marking walk of check_A1
    and from check_A2, as the handler built it before it read the core set."""
    verdict = potential.is_potential(marking)
    a1, a2 = potential.check_A1(marking), potential.check_A2(marking)
    nodes = marking.graph.nodes
    doc = {
        "nodes": len(nodes),
        "edges": len(marking.graph.undirected_edges),
        "potential": verdict.ok,
        "witness": None,
        "a1": a1.ok,
        "a2": a2 is not None,
    }
    if not verdict.ok:
        doc["witness"] = {
            "cycle": [nodes[i] for i in verdict.witness_cycle_nodes],
            "product": verdict.witness_product.name,
        }
    if a2 is not None:
        doc["characteristic"] = {str(nodes[i]): el.name for i, el in sorted(a2.values.items())}
    return doc


def _random_markings(seed):
    """Gauge markings, the same with one directed edge remarked, A2-symmetric
    and random markings of complete, cycle and complete bipartite graphs
    over three groups."""
    rng = random.Random(seed)
    shapes = [
        RelationGraph.complete(range(1, 9)),
        RelationGraph.cycle(range(1, 7)),
        RelationGraph.cycle(range(1, 8)),
        RelationGraph.from_undirected(range(1, 6), [(a, b) for a in (1, 2) for b in (3, 4, 5)]),
    ]
    for group in (sign_group(), cyclic_group(3), symmetric_group(3)):
        elements = list(group)
        for graph in shapes:
            gauge = [rng.choice(elements) for _ in graph.nodes]
            values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
            yield Marking(graph, group, values)
            i, j = graph.undirected_edges[0]
            yield Marking(graph, group, {**values, (i, j): rng.choice(elements)})
            a = {i: rng.choice(elements) for i in range(len(graph))}
            # g(j, i) = g(i, j)^-1 * a_i keeps the round trips neighbor-free.
            sym = {}
            for i, j in graph.undirected_edges:
                sym[(i, j)] = rng.choice(elements)
                sym[(j, i)] = sym[(i, j)].inverse() * a[i]
            yield Marking(graph, group, sym)
            yield Marking(
                graph, group, {e: rng.choice(elements) for e in graph.directed_edges}
            )


@pytest.mark.parametrize("seed", range(4))
def test_check_potential_matches_the_star_criteria_oracle(capsys, seed):
    for marking in _random_markings(seed):
        net = json.dumps(network_to_json(marking))
        code, payload = run_cli(capsys, "check-potential", "--net", net)
        assert code == 0
        assert payload == _star_criteria_oracle(marking)


# sha256 of the default stdout of each command on each fixture, recorded
# before check-potential read A1 and A2 off the core set.  The documents
# hold integers and strings only, so the digests hold on every platform.
_FIXTURE_DIGESTS = [
    ("gamma3_allg.json", "check-potential", 0, "86fd54d001ffa3e0b059af8497d53e619fefe127f236209d98e54a854d22e64c"),
    ("gamma3_allg.json", "balance", 0, "7c815ca58f9b3ee9b7eb3023105e5485f7d93dfed4b0b5beb7fbc86a8d792881"),
    ("gamma3_allg.json", "markov", 0, "a7d93b10bd0a68783785e4dfc97cf99792bde924966cf56ffd292bcbf6ecd848"),
    ("gamma3_allg.json", "markov --exact", 0, "164e94fac436ba89903fe2c21c8095e8442e0d332b3543304d24d0f93e613353"),
    ("gamma3_allg.json", "ideals", 2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_allg.json", "absorb --seed 0", 2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_allg.json", "analyze", 0, "4a7b00f6ca5c0a0b538b4e6ee61011f18ef4b6109db1f93da03d7f628501ffa4"),
    ("gamma3_balanced.json", "check-potential", 0, "eb11116e5534f28d204d82af717486ccaa0ae44342e5ca154f1def8243f6cc11"),
    ("gamma3_balanced.json", "balance", 0, "2f268cb7742f7f4e085c14462b4b6baadf090787f0369b706b16d805ce85118c"),
    ("gamma3_balanced.json", "markov", 0, "651f46b0d783b8a7a91485b6d9c49b022951f17cc8da1b759f4b9bc7c0ff12af"),
    ("gamma3_balanced.json", "markov --exact", 0, "6d1c413c5e227dba616dd264ed8f26d280dbf1c00a8870f5a187573205a21fae"),
    ("gamma3_balanced.json", "ideals", 0, "0f9e4dfd095aa68212fbf14af2b1aaba1271242c8dbd89e1658ca7fb2a1adc88"),
    ("gamma3_balanced.json", "absorb --seed 0", 0, "73190935d53db183ff55f1165bd45140a1ad42fb7709fffed9d1b189436d051c"),
    ("gamma3_balanced.json", "analyze", 0, "be86562d849c55cebf2149f0e4a5012f424d79df4a6470db09a2a8c110ff286b"),
    ("gamma3_ex1.json", "check-potential", 0, "86fd54d001ffa3e0b059af8497d53e619fefe127f236209d98e54a854d22e64c"),
    ("gamma3_ex1.json", "balance", 0, "40ef86873704f73f0f631660b22c264cb74f1a5b6a19beb4e9b709d8a67cb46c"),
    ("gamma3_ex1.json", "markov", 0, "f4327537bb211cd9208f8a5b575d53db324cd921dad2da6da714c7758dc2d05d"),
    ("gamma3_ex1.json", "markov --exact", 0, "5d3d0dee679dcc452fbbceb2d3b3242e500da068d9c4bbd30f65bf863d809614"),
    ("gamma3_ex1.json", "ideals", 2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_ex1.json", "absorb --seed 0", 2, "6bc3826b93a02ff6452be4dedf45df01bdb87647b6cd07d7f378d09507cd549c"),
    ("gamma3_ex1.json", "analyze", 0, "79c2334bda7634d8f6ae4565889469cacd89d32430d84ba4dd8611da09cf5eac"),
    ("k4_complete.json", "check-potential", 0, "7ad2302834b5812f02fe20a19d243857ba150a59d006c26ea0624152ec2a3dc2"),
    ("k4_complete.json", "balance", 0, "3b130846cc87bbb26b589da5a6925e58a5bd2b35314ba9cc354317cb9c87ac44"),
    ("k4_complete.json", "markov", 0, "48986c0700b3729f39e4e637e053e3d8de241c38b4c2abb516a9e3b54900e05d"),
    ("k4_complete.json", "markov --exact", 0, "2048d2d0080bd56a4cfc9dcb5d7d79db6e9cf114b155cc92a11076056ee834e8"),
    ("k4_complete.json", "ideals", 0, "bfd23663052ef33b864bdbf636045789746b2b58fafde0bbdebd874918ebc552"),
    ("k4_complete.json", "absorb --seed 0", 0, "314a6721bc4829bb7cb2ed22f00520090c0e24e753bd8fc9e98cc259334fd602"),
    ("k4_complete.json", "analyze", 0, "0c5678f6a661b52d5e6387f9e84d8cdc49237d437029cd88995be6acb876725d"),
    ("k4_embedding.json", "check-potential", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("k4_embedding.json", "balance", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("k4_embedding.json", "markov", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("k4_embedding.json", "markov --exact", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("k4_embedding.json", "ideals", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("k4_embedding.json", "absorb --seed 0", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("k4_embedding.json", "analyze", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "check-potential", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "balance", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "markov", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "markov --exact", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "ideals", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "absorb --seed 0", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
    ("sign_group.json", "analyze", 2, "14986b913315737b75dbe101ac05fd09d624937821088fd9438f5d2f903a910d"),
]


@pytest.mark.parametrize("net,command,code,digest", _FIXTURE_DIGESTS)
def test_default_stdout_is_unchanged_on_every_fixture(
    capsys, fixtures_dir, net, command, code, digest
):
    assert main(command.split() + ["--net", str(fixtures_dir / net)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_discretize_of_the_nonpotential_field_keeps_its_message(capsys, fixtures_dir):
    code, payload = run_cli(
        capsys, "smooth", "discretize", "--field", "nonpotential",
        "--net", str(fixtures_dir / "k4_complete.json"),
        "--embedding", str(fixtures_dir / "k4_embedding.json"),
    )
    assert code == 2
    assert payload == {
        "error": {
            "type": "non-potential",
            "message": "field residual 1.530e+03 exceeds 1e-4; cycle products "
            "would not close up",
        }
    }


# 4 * h * h underflows to zero, so every mixed difference is 0 / 0, which
# numpy warns about.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_check_residual_refuses_a_step_whose_residuals_are_all_nan(capsys):
    code, payload = run_cli(
        capsys, "smooth", "check-residual", "--field", "constant", "--h", "1e-200"
    )
    assert code == 2
    assert payload["error"] == {
        "type": "validation",
        "message": "step 1e-200 gives a NaN residual at every sample point",
    }


def test_check_potential_stays_flat_in_the_group_order(capsys, tmp_path):
    # A gauge K3,3 over C120: its core has 120**2 states, about 4.4 MB to
    # build, which the verdicts never read.  The digest is the stdout of the
    # code that built them.
    group = cyclic_group(120)
    graph = RelationGraph.from_undirected(range(6), [(a, b) for a in range(3) for b in range(3, 6)])
    gauge = [group.element((7 * i + 3) % 120) for i in range(6)]
    values = {(i, j): gauge[i].inverse() * gauge[j] for i, j in graph.directed_edges}
    net = tmp_path / "k33_c120.json"
    net.write_text(json.dumps(network_to_json(Marking(graph, group, values))))
    tracemalloc.start()
    try:
        code = main(["check-potential", "--net", str(net)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert peak < 1_000_000
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ab5a18f089eb73b943de9456466a314723c2d839788a5a5fb73b458675267bbf"
    )


def test_exact_rows_are_written_a_block_at_a_time(tmp_path):
    from fractions import Fraction

    # K10 over the sign group writes about 32.7 MB of rows in four blocks.
    # Streamed, the traced peak is 0.84 of the output (3.9 when the whole
    # text was built first), so holding the whole text fails the bound.
    graph = RelationGraph.complete(list(range(10)))
    marking = Marking.from_names(
        graph, sign_group(), {(i, j): "e" for i, j in graph.directed_edges}
    )
    net = json.dumps(network_to_json(marking))
    out = tmp_path / "k10.json"
    tracemalloc.start()
    try:
        code = main(["markov", "--exact", "--net", net, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out.stat().st_size
    assert size > 30_000_000
    assert peak < size
    with out.open() as f:
        rows = json.load(f)["exact_rows"]
    assert len(rows) == 1024
    assert all(sum(map(Fraction, row.values())) == 1 for row in rows)


def test_every_command_prints_the_same_without_scipy(capsys, fixtures_dir):
    net = str(fixtures_dir / "k4_complete.json")
    embedding = str(fixtures_dir / "k4_embedding.json")
    line = '{"type": "line", "from": [0.2, 0.3], "to": [0.7, 0.6]}'
    commands = [
        [*command.split(), "--net", net]
        for command in ("check-potential", "balance", "markov", "markov --exact", "ideals",
                        "absorb --seed 0", "analyze")
    ] + [
        ["gen-fields", "--nodes", "4"],
        ["smooth", "check-residual", "--grid", "17"],
        ["smooth", "p-integral", "--curve", line, "--n", "256"],
        ["smooth", "discretize", "--net", net, "--embedding", embedding],
    ]
    # None in sys.modules makes every import of scipy raise.
    result = _probe(
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from balancenets.cli import main\n"
        "from balancenets.smoothfield import PlaneCoefficients, solve_ode_field\n"
        "outs = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        outs.append([main(argv), buf.getvalue()])\n"
        "try:\n"
        "    solve_ode_field(PlaneCoefficients(0.0, 1.0, 1.0), lambda x: x)\n"
        "except ModuleNotFoundError as exc:\n"
        "    outs.append([exc.name, str(exc)])\n"
        "print(json.dumps(outs))\n"
    )
    *outs, missing = json.loads(result.stdout)
    assert missing[0] == "scipy" and "scipy" in missing[1]
    digests = {
        (command, code): digest
        for name, command, code, digest in _FIXTURE_DIGESTS
        if name == "k4_complete.json"
    }
    for argv, (code, out) in zip(commands, outs):
        assert main(argv) == code
        assert capsys.readouterr().out == out
        if argv[-1] == net:
            key = (" ".join(argv[:-2]), code)
            assert hashlib.sha256(out.encode()).hexdigest() == digests[key]
